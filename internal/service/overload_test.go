package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pops"
	"pops/internal/wire"
)

// newRawServer mounts svc on an httptest server and returns its base URL,
// for tests that need to read raw response headers and statuses.
func newRawServer(t *testing.T, svc *Service) string {
	t.Helper()
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		srv.Close()
	})
	return srv.URL
}

func permJSON(pi []int) string {
	b, _ := json.Marshal(pi)
	return string(b)
}

// oneSlotShard builds a service whose shards have a single planning slot
// and resolves its POPS(4, 4) shard.
func oneSlotShard(t *testing.T, cfg Config) (*Service, *shard) {
	t.Helper()
	cfg.PlannerOptions = append(cfg.PlannerOptions, pops.WithParallelism(1))
	svc := New(cfg)
	t.Cleanup(svc.Close)
	sh, err := svc.shardFor(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return svc, sh
}

// holdSlots occupies every planning slot of sh, so gate admissions wait
// until the returned release runs.
func holdSlots(sh *shard) (release func()) {
	for i := 0; i < cap(sh.slots); i++ {
		sh.slots <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(sh.slots); i++ {
			<-sh.slots
		}
	}
}

// awaitWaiters blocks until n requests wait at sh's gate.
func awaitWaiters(t *testing.T, sh *shard, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sh.waiting.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests waiting at the gate, want %d", sh.waiting.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// outcome is one gate request's answer, delivered by routeAsync.
type outcome struct {
	res Result
	err error
}

// routeAsync sends one permutation through sh's gate on its own goroutine.
func routeAsync(ctx context.Context, sh *shard, pi []int, strategy string) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		res, err := sh.route(ctx, pi, strategy)
		ch <- outcome{res, err}
	}()
	return ch
}

// TestQueueOverflowShedsTyped fills a shard's bounded admission wait and
// pins the overflow contract: the excess admission is rejected immediately
// with a typed *pops.OverloadError carrying the shape, queue name, and a
// positive Retry-After hint — and every request that was admitted before the
// bound still completes once a planning slot frees.
func TestQueueOverflowShedsTyped(t *testing.T) {
	_, sh := oneSlotShard(t, Config{QueueDepth: 2})
	release := holdSlots(sh)

	pi := pops.VectorReversal(16)
	ctx := context.Background()
	var waiters []<-chan outcome
	for i := 0; i < 2; i++ {
		waiters = append(waiters, routeAsync(ctx, sh, pi, ""))
	}
	awaitWaiters(t, sh, 2)

	_, err := sh.route(ctx, pi, "")
	var oe *pops.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("overflow admission returned %v, want *pops.OverloadError", err)
	}
	if oe.D != 4 || oe.G != 4 || oe.Queue != "admission" {
		t.Fatalf("verdict = %+v, want D=4 G=4 Queue=admission", oe)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if got := sh.sheds.Load(); got != 1 {
		t.Fatalf("shard sheds = %d, want 1", got)
	}

	// The wait bound rejected the overflow, not the admitted work: free the
	// slot and every waiting request must still complete with a plan.
	release()
	for i, ch := range waiters {
		select {
		case out := <-ch:
			if out.err != nil || out.res.Err != nil || out.res.Plan == nil {
				t.Fatalf("waiting request %d: %+v, want a plan", i, out)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiting request %d never completed", i)
		}
	}
}

// TestDeadlineExpiredQueuedRequestShed pins deadline shedding: a request
// whose propagated deadline expires while it waits for a planning slot is
// dropped — it returns context.DeadlineExceeded and the planner never sees
// it.
func TestDeadlineExpiredQueuedRequestShed(t *testing.T) {
	_, sh := oneSlotShard(t, Config{QueueDepth: 4})
	release := holdSlots(sh)

	dctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	doomed := routeAsync(dctx, sh, pops.VectorReversal(16), "")
	alive := routeAsync(context.Background(), sh, pops.IdentityPermutation(16), "")
	awaitWaiters(t, sh, 2)
	<-dctx.Done() // the waiting request's deadline passes before any slot frees

	select {
	case out := <-doomed:
		if !errors.Is(out.err, context.DeadlineExceeded) {
			t.Fatalf("doomed request resolved %+v, want DeadlineExceeded", out)
		}
		if out.res.Plan != nil {
			t.Fatal("doomed request was planned anyway")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("doomed request never resolved")
	}
	release()
	select {
	case out := <-alive:
		if out.err != nil || out.res.Err != nil || out.res.Plan == nil {
			t.Fatalf("live request resolved %+v, want a plan", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live request never completed")
	}
	if got := sh.deadlineSheds.Load(); got != 1 {
		t.Fatalf("deadline sheds = %d, want 1", got)
	}
}

// TestAdmitRefusesExpiredContext: a request that arrives already expired is
// refused before it takes a slot or a place in the wait.
func TestAdmitRefusesExpiredContext(t *testing.T) {
	_, sh := oneSlotShard(t, Config{QueueDepth: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sh.route(ctx, pops.VectorReversal(16), ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("admit with a dead context: %v, want context.Canceled", err)
	}
	if n := sh.waiting.Load() + int64(len(sh.slots)); n != 0 {
		t.Fatalf("dead-context admission took a slot or a place in the wait (%d)", n)
	}
}

// slotHolder is a plan observer that parks the first default-strategy plan
// inside its planning slot until release is closed.
type slotHolder struct {
	entered chan struct{}
	release chan struct{}
}

func (h *slotHolder) ObservePlan(strategy string, cached bool, d time.Duration) {
	if strategy != pops.StrategyTheoremTwo {
		return
	}
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-h.release
}

// TestNamedStrategyShedsAtAdmission: a named-strategy request passes the
// same gate as the default strategy, so with the one planning slot busy and
// the wait full it sheds with Queue "admission" instead of running
// uncapped beside the planner.
func TestNamedStrategyShedsAtAdmission(t *testing.T) {
	holder := &slotHolder{entered: make(chan struct{}, 1), release: make(chan struct{})}
	svc := New(Config{QueueDepth: 2, PlannerOptions: []pops.Option{
		pops.WithParallelism(1), pops.WithPlanObserver(holder),
	}})
	const d, g = 4, 4
	ctx := context.Background()
	var wg sync.WaitGroup
	route := func(pi []int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Route(ctx, d, g, pi, ""); err != nil {
				t.Error(err)
			}
		}()
	}
	t.Cleanup(func() {
		close(holder.release)
		wg.Wait()
		svc.Close()
	})

	route(pops.VectorReversal(d * g))
	<-holder.entered // the slot is held by a default-strategy miss
	for i := 1; i <= 2; i++ {
		pi, err := pops.MeshShift(d, g, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		route(pi)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := svc.Stats()
		if len(st.Shards) == 1 && st.Shards[0].QueueLen == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wait never filled: %+v", st.Shards)
		}
		time.Sleep(time.Millisecond)
	}

	_, err := svc.Route(ctx, d, g, pops.IdentityPermutation(d*g), pops.StrategyGreedy)
	var oe *pops.OverloadError
	if !errors.As(err, &oe) || oe.Queue != "admission" {
		t.Fatalf("greedy request with the gate full returned %v, want an admission shed", err)
	}
}

// TestNamedStrategyRefusesCancelledContext: a named-strategy request with a
// dead context is refused at admission and never reaches its router.
func TestNamedStrategyRefusesCancelledContext(t *testing.T) {
	svc := New(Config{})
	t.Cleanup(svc.Close)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Route(ctx, 4, 4, pops.VectorReversal(16), pops.StrategyGreedy)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("greedy request with a dead context: %v, want context.Canceled", err)
	}
	st := svc.Stats()
	for _, sh := range st.Shards {
		if sh.Requests != 0 {
			t.Fatalf("shard admitted %d requests for a dead context", sh.Requests)
		}
	}
	if len(st.PlanTimes) != 0 {
		t.Fatalf("a dead-context request was planned: %+v", st.PlanTimes)
	}
}

// TestRetryAfterHint pins the backoff hint: the rounds of slots the waiters
// fill, plus one, times the plan-time EWMA, clamped to [5ms, 2s].
func TestRetryAfterHint(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		ewma           time.Duration
		waiters, slots int
		want           time.Duration
	}{
		{0, 0, 1, 5 * ms},                   // nothing measured yet: the floor
		{ms, 3, 4, 5 * ms},                  // one round, under the floor
		{10 * ms, 0, 4, 10 * ms},            // idle gate: one plan time
		{10 * ms, 7, 4, 20 * ms},            // a partial round rounds down
		{10 * ms, 8, 4, 30 * ms},            // two full rounds ahead
		{10 * ms, 1024, 1, 2 * time.Second}, // the ceiling
	} {
		if got := retryAfter(tc.ewma, tc.waiters, tc.slots); got != tc.want {
			t.Errorf("retryAfter(%v, %d waiters, %d slots) = %v, want %v", tc.ewma, tc.waiters, tc.slots, got, tc.want)
		}
	}
}

// TestStreamCapSheds is the regression test for /route/stream bypassing
// admission control: with MaxStreams=1, the slot is held for the life of an
// open stream — a second concurrent stream on the shard sheds with a typed
// "stream" overload verdict, and closing the first stream frees the slot.
func TestStreamCapSheds(t *testing.T) {
	svc := New(Config{MaxStreams: 1})
	t.Cleanup(svc.Close)
	const d, g = 4, 4
	pi := pops.VectorReversal(d * g)

	st, err := svc.RouteStream(context.Background(), d, g, pi, "")
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}

	_, err = svc.RouteStream(context.Background(), d, g, pi, "")
	var oe *pops.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("second stream error %v, want *pops.OverloadError", err)
	}
	if oe.Queue != "stream" {
		t.Fatalf("overload queue %q, want stream", oe.Queue)
	}

	st.Close() // release the slot; the next stream must be admitted again
	st3, err := svc.RouteStream(context.Background(), d, g, pi, "")
	if err != nil {
		t.Fatalf("stream after slot release: %v", err)
	}
	st3.Close()
}

// TestHTTPShedAnswers429WithRetryAfter pins the wire shape of a shed: HTTP
// 429 with both Retry-After (whole seconds) and X-Retry-After-Ms, plus the
// queue attribution header.
func TestHTTPShedAnswers429WithRetryAfter(t *testing.T) {
	svc := New(Config{MaxStreams: 1})
	raw := newRawServer(t, svc)
	client := pops.NewServiceClient(raw, nil)

	// Hold the shard's one stream slot open in-process so the HTTP attempt
	// below is deterministically over the cap.
	st, err := svc.RouteStream(context.Background(), 4, 4, pops.VectorReversal(16), "")
	if err != nil {
		t.Fatalf("first stream: %v", err)
	}
	defer st.Close()

	resp, err := http.Post(raw+"/route/stream", "application/json",
		strings.NewReader(`{"d":4,"g":4,"pi":`+permJSON(pops.VectorReversal(16))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp.Header.Get(wire.HeaderRetryAfterMs) == "" {
		t.Fatal("429 without X-Retry-After-Ms")
	}
	if got := resp.Header.Get(wire.HeaderOverloadQueue); got != "stream" {
		t.Fatalf("X-Overload-Queue = %q, want stream", got)
	}

	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sheds == 0 {
		t.Fatal("/stats Sheds = 0 after a shed")
	}
}

// TestHTTPExpiredDeadlineAnswers504: a request whose X-Deadline already
// passed is answered 504 without planning.
func TestHTTPExpiredDeadlineAnswers504(t *testing.T) {
	svc := New(Config{})
	raw := newRawServer(t, svc)

	req, err := http.NewRequest(http.MethodPost, raw+"/route",
		strings.NewReader(`{"d":4,"g":4,"pi":`+permJSON(pops.VectorReversal(16))+`}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(wire.HeaderDeadline, wire.EncodeDeadline(time.Now().Add(-time.Second)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	stats := svc.Stats()
	if stats.DeadlineSheds == 0 {
		t.Fatal("/stats DeadlineSheds = 0 after an expired-deadline request")
	}
	if stats.Requests != 0 {
		t.Fatalf("requests = %d, want 0 (nothing was admitted)", stats.Requests)
	}
}
