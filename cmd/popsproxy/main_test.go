package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pops"
	"pops/internal/chaos"
	"pops/internal/service"
	"pops/internal/wire"
)

// testWriter routes the proxy's stdout lines into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// startBackends boots n in-process popsserved backends (real service
// handlers over real HTTP) and returns their servers and URLs.
func startBackends(t *testing.T, n int) ([]*httptest.Server, []string) {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Name: fmt.Sprintf("node-%d", i)})
		srv := httptest.NewServer(svc.Handler())
		servers[i], urls[i] = srv, srv.URL
		t.Cleanup(srv.Close)
		t.Cleanup(svc.Close)
	}
	return servers, urls
}

// startProxy boots popsproxy via its run entry point on an ephemeral port.
func startProxy(t *testing.T, args ...string) (net.Addr, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), testWriter{t}, ready)
	}()
	select {
	case addr := <-ready:
		return addr, cancel, done
	case err := <-done:
		t.Fatalf("proxy exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("proxy never became ready")
	}
	return nil, nil, nil
}

// TestClusterSmoke is the end-to-end smoke `make cluster-smoke` runs: boot
// three in-process popsserved backends and a popsproxy front door, drive a
// permutation trace through the unchanged single-node client, kill one
// backend mid-trace, and assert (a) every request still succeeds — the dead
// node is ejected and its keys fail over to the next ring owner — and
// (b) a replayed permutation is answered from the owning node's fingerprint
// plan cache, proving shape-affine placement survived the membership change.
func TestClusterSmoke(t *testing.T) {
	servers, urls := startBackends(t, 3)
	addr, cancel, done := startProxy(t,
		"-backends", strings.Join(urls, ","),
		"-health-interval", "20ms",
		"-retry-backoff", "1ms",
	)

	client := pops.NewServiceClient("http://"+addr.String(), nil)
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	const d, g = 4, 8
	n := d * g
	trace := make([][]int, 24)
	for i := range trace {
		pi := make([]int, n)
		for j := range pi {
			pi[j] = (j + i + 1) % n
		}
		trace[i] = pi
	}

	// First half of the trace with the full fleet.
	for i := 0; i < len(trace)/2; i++ {
		plan, err := client.Execute(ctx, d, g, pops.Permutation(trace[i]))
		if err != nil {
			t.Fatalf("request %d failed with the full fleet: %v", i, err)
		}
		if plan.Slots != pops.OptimalSlots(d, g) {
			t.Fatalf("request %d: slots = %d, want %d", i, plan.Slots, pops.OptimalSlots(d, g))
		}
	}

	// Kill one backend mid-trace. In-flight and subsequent requests owned by
	// the dead node must fail over; nothing may surface to the client.
	servers[2].CloseClientConnections()
	servers[2].Close()

	// Zero failed requests after ejection: the full trace again. Keys owned
	// by the dead node move to their next ring owner and are re-planned
	// there; keys of the survivors stay put.
	for i, pi := range trace {
		if _, err := client.Execute(ctx, d, g, pops.Permutation(pi)); err != nil {
			t.Fatalf("request %d failed after killing a backend: %v", i, err)
		}
	}

	// Affinity after the membership change: every permutation now has a live
	// owner that has planned it, so a full replay must be answered entirely
	// from the owning nodes' fingerprint plan caches.
	hits := 0
	for i, pi := range trace {
		plan, err := client.Execute(ctx, d, g, pops.Permutation(pi))
		if err != nil {
			t.Fatalf("replay %d failed: %v", i, err)
		}
		if plan.Cached {
			hits++
		}
	}
	if hits != len(trace) {
		t.Fatalf("only %d of %d replays hit the owning node's plan cache", hits, len(trace))
	}

	// The aggregated stats must report the dead node unhealthy and attribute
	// traffic to the survivors.
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server != "popsproxy" || len(stats.Backends) != 3 {
		t.Fatalf("stats = server %q with %d backends, want popsproxy with 3", stats.Server, len(stats.Backends))
	}
	if stats.Backends[2].Healthy {
		t.Fatal("killed backend still reported healthy")
	}
	if stats.CacheHits == 0 {
		t.Fatal("aggregated stats report no cache hits despite the replayed trace")
	}

	// Graceful drain must complete promptly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain within 15s")
	}
}

// TestClusterSmokeStream streams through the proxy and replays the stream,
// asserting the replay is served from the owning node's cache.
func TestClusterSmokeStream(t *testing.T) {
	_, urls := startBackends(t, 3)
	addr, cancel, done := startProxy(t, "-backends", strings.Join(urls, ","))
	client := pops.NewServiceClient("http://"+addr.String(), nil)
	ctx := context.Background()

	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	for attempt := 1; attempt <= 2; attempt++ {
		st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			rec, err := st.Next()
			if err != nil {
				t.Fatalf("attempt %d: %v", attempt, err)
			}
			if rec == nil {
				break
			}
			got++
		}
		if got != st.Meta().Fragments {
			t.Fatalf("attempt %d: %d fragments, meta promised %d", attempt, got, st.Meta().Fragments)
		}
		if attempt == 2 && !st.Meta().Cached {
			t.Fatal("streamed replay was not a cache hit on the owning node")
		}
		st.Close()
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain within 15s")
	}
}

// TestClusterSmokeStreamBinary streams through the proxy with the codec
// pinned to binary: CodecBinary fails unless the answer arrives with the
// application/x-pops-bin Content-Type, so a passing run proves the proxy
// relayed the backend's binary framing (Content-Type included) end to end,
// re-framed chunk by chunk, and that the replay still hits the owning
// node's plan cache.
func TestClusterSmokeStreamBinary(t *testing.T) {
	_, urls := startBackends(t, 3)
	addr, cancel, done := startProxy(t, "-backends", strings.Join(urls, ","))
	client := pops.NewServiceClient("http://"+addr.String(), nil).WithCodec(pops.CodecBinary)
	ctx := context.Background()

	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	for attempt := 1; attempt <= 2; attempt++ {
		st, err := client.ExecuteStream(ctx, d, g, pops.Permutation(pi))
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		got := 0
		for {
			rec, err := st.Next()
			if err != nil {
				t.Fatalf("attempt %d: %v", attempt, err)
			}
			if rec == nil {
				break
			}
			got++
		}
		if got != st.Meta().Fragments {
			t.Fatalf("attempt %d: %d fragments, meta promised %d", attempt, got, st.Meta().Fragments)
		}
		if st.Done() == nil {
			t.Fatalf("attempt %d: stream ended without a done frame", attempt)
		}
		if attempt == 2 && !st.Meta().Cached {
			t.Fatal("binary streamed replay was not a cache hit on the owning node")
		}
		st.Close()
	}

	// The unary path holds the same pin: a binary-only client must round-trip
	// /route through the proxy.
	plan, err := client.Execute(ctx, d, g, pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("slots = %d, want %d", plan.Slots, pops.OptimalSlots(d, g))
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain within 15s")
	}
}

// TestRunRequiresBackends pins the required-flag validation to an error.
func TestRunRequiresBackends(t *testing.T) {
	if err := run(context.Background(), nil, testWriter{t}, nil); err == nil {
		t.Fatal("run accepted an empty -backends")
	}
}

// TestRunRejectsBadFlags pins flag-parse failures to an error.
func TestRunRejectsBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-retries", "x"}, testWriter{t}, nil)
	if err == nil {
		t.Fatal("bad flags accepted")
	}
}

// backendStats returns the proxy's per-backend entry for url.
func backendStats(t *testing.T, client *pops.ServiceClient, url string) wire.BackendStats {
	t.Helper()
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range stats.Backends {
		if b.ID == url {
			return b
		}
	}
	t.Fatalf("backend %s missing from proxy /stats", url)
	return wire.BackendStats{}
}

// TestOverloadSmoke is the end-to-end overload smoke `make overload-smoke`
// runs: two throttled popsserved backends, each behind a chaos.Slowdown,
// and a popsproxy front door. One backend is degraded to 200ms per request;
// health checks cannot see it (Slowdown spares /healthz), so the proxy's
// latency breaker must open on it. A 4x load ramp then sheds with typed 429
// verdicts carrying Retry-After while the admitted p99 stays within 5x of
// the uncontended baseline, and once the slowness lifts the breaker closes
// again.
func TestOverloadSmoke(t *testing.T) {
	slow := make([]*chaos.Slowdown, 2)
	urls := make([]string, 2)
	for i := range slow {
		drag := &chaos.PlanDrag{}
		drag.Set(2 * time.Millisecond) // one planning slot: ≈ 0.5 plans/ms per node
		svc := service.New(service.Config{
			Name:           fmt.Sprintf("node-%d", i),
			QueueDepth:     2,
			PlannerOptions: []pops.Option{pops.WithParallelism(1), pops.WithPlanObserver(drag)},
		})
		slow[i] = chaos.NewSlowdown(svc.Handler())
		srv := httptest.NewServer(slow[i])
		urls[i] = srv.URL
		t.Cleanup(func() {
			drag.Set(0)
			slow[i].Set(0)
			srv.Close()
			svc.Close()
		})
	}
	addr, cancel, done := startProxy(t,
		"-backends", strings.Join(urls, ","),
		"-health-interval", "20ms",
		"-retry-backoff", "1ms",
		"-breaker-latency", "50ms",
		"-breaker-cooldown", "1s",
	)
	client := pops.NewServiceClient("http://"+addr.String(), nil)

	// Distinct permutations per request, so placement spreads over both
	// ring owners and every request plans.
	const d, g = 4, 4
	var seq atomic.Int64
	var shedSample atomic.Pointer[pops.OverloadError]
	route := func(ctx context.Context, _ int) error {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		pi := pops.RandomPermutation(d*g, rand.New(rand.NewSource(seq.Add(1))))
		_, err := client.Execute(cctx, d, g, pops.Permutation(pi))
		var oe *pops.OverloadError
		if errors.As(err, &oe) {
			shedSample.Store(oe)
		}
		return err
	}

	// Baseline: two paced workers stay under either node's capacity.
	base := chaos.Ramp{Workers: 2, Requests: 60, Interval: 5 * time.Millisecond}.Run(context.Background(), route)
	if base.Shed != 0 || base.Failed != 0 || base.Admitted != base.Total() {
		t.Fatalf("baseline ramp not clean: %+v", base)
	}
	p99Base := base.Percentile(0.99)

	// Degrade node 1. Its latency EWMA must trip the breaker while the
	// health prober still reports it healthy.
	slow[1].Set(200 * time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for backendStats(t, client, urls[1]).BreakerState != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("slow node's breaker never opened: %+v", backendStats(t, client, urls[1]))
		}
		if err := route(context.Background(), 0); err != nil {
			t.Fatalf("request while degrading: %v", err)
		}
	}
	if b := backendStats(t, client, urls[1]); !b.Healthy {
		t.Fatalf("slow node was ejected by health checks, not the breaker: %+v", b)
	}

	// 4x ramp: four times the baseline workers at the same pacing, all of
	// it on the one fast node. The excess must shed as typed, Retry-After
	// carrying 429s, not fail and not queue without bound.
	over := chaos.Ramp{Workers: 8, Requests: 240, Interval: 5 * time.Millisecond}.Run(context.Background(), route)
	if over.Shed == 0 || over.Failed != 0 || over.Admitted == 0 {
		t.Fatalf("4x ramp: want sheds, admissions and no failures: %+v", over)
	}
	if oe := shedSample.Load(); oe == nil || oe.RetryAfter <= 0 {
		t.Fatalf("shed verdict lacks a Retry-After: %+v", oe)
	}
	bound := max(5*p99Base, 5*10*time.Millisecond)
	if p99 := over.Percentile(0.99); p99 > bound {
		t.Fatalf("admitted p99 under 4x load = %v, want <= %v (baseline p99 %v)", p99, bound, p99Base)
	}
	t.Logf("baseline p99 %v; 4x ramp: %d admitted, %d shed, p99 %v", p99Base, over.Admitted, over.Shed, over.Percentile(0.99))

	// Lift the slowness: after the cooldown a half-open probe must find the
	// node fast again and close the breaker.
	slow[1].Set(0)
	deadline = time.Now().Add(10 * time.Second)
	for {
		b := backendStats(t, client, urls[1])
		if b.BreakerState == "closed" && b.BreakerOpens >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow node's breaker never re-closed: %+v", b)
		}
		if err := route(context.Background(), 0); err != nil {
			t.Fatalf("request during recovery: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain within 15s")
	}
}
