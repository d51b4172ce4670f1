package service

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pops"
	"pops/internal/obs"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// newTestServer mounts a fresh service on an httptest server and returns a
// client for it. Cleanup drains the service before the server closes.
func newTestServer(t *testing.T, cfg Config) (*Service, *pops.ServiceClient) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		srv.Close()
	})
	return svc, pops.NewServiceClient(srv.URL, srv.Client())
}

// TestEndToEndRouteVerifiesOnSimulator is the full round-trip: /route with
// include_schedule, rebuild the schedule client-side, replay it on the
// slot-level simulator (pops.Run semantics), and check the permutation was
// actually routed.
func TestEndToEndRouteVerifiesOnSimulator(t *testing.T) {
	_, client := newTestServer(t, Config{})
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	resp, err := client.Do(context.Background(), &pops.ServiceRouteRequest{
		D: d, G: g, Pi: pi, IncludeSchedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := resp.Plans[0]
	if plan.Error != "" {
		t.Fatalf("plan error: %s", plan.Error)
	}
	if plan.Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("slots = %d, want %d", plan.Slots, pops.OptimalSlots(d, g))
	}
	if plan.Schedule == nil {
		t.Fatal("include_schedule did not return a schedule")
	}
	// The wire schedule must replay on the simulator and route pi.
	if _, err := popsnet.VerifyPermutationRouted(plan.Schedule, pi); err != nil {
		t.Fatalf("served schedule failed simulation: %v", err)
	}
	// And pops.Run (the canonical replay) must accept it too.
	if _, err := pops.Run(plan.Schedule); err != nil {
		t.Fatalf("pops.Run rejected served schedule: %v", err)
	}
}

// TestConcurrentShardsAndCacheHits exercises the registry and cache under
// the race detector: two shapes served concurrently, every worker routing a
// small set of recurring permutations, so shard creation races and cache
// hits both happen.
func TestConcurrentShardsAndCacheHits(t *testing.T) {
	svc, client := newTestServer(t, Config{})
	shapes := []struct{ d, g int }{{4, 8}, {8, 4}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				shape := shapes[(w+iter)%len(shapes)]
				pi := pops.VectorReversal(shape.d * shape.g)
				if (w+iter)%3 == 0 {
					pi = pops.IdentityPermutation(shape.d * shape.g)
				}
				plan, err := client.Route(context.Background(), shape.d, shape.g, pi)
				if err != nil {
					t.Error(err)
					return
				}
				if plan.Slots != pops.OptimalSlots(shape.d, shape.g) {
					t.Errorf("POPS(%d,%d): slots = %d", shape.d, shape.g, plan.Slots)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	stats := svc.Stats()
	if stats.ShardCount != 2 {
		t.Fatalf("shard count = %d, want 2", stats.ShardCount)
	}
	if stats.Requests != 160 {
		t.Fatalf("requests = %d, want 160", stats.Requests)
	}
	// 160 routes over 4 distinct permutations: nearly everything hits the
	// cache or coalesces; at minimum, hits must dominate.
	if stats.CacheHits == 0 {
		t.Fatal("no cache hits recorded for recurring permutations")
	}
	if stats.CacheHits+stats.CacheMisses == 0 {
		t.Fatal("no cache lookups recorded")
	}
}

// TestRepeatedPermutationHitsCacheObservableViaStats pins the acceptance
// criterion: a repeated permutation is answered from the fingerprint cache,
// observable through the /stats hit counter and the plan's cached flag.
func TestRepeatedPermutationHitsCacheObservableViaStats(t *testing.T) {
	_, client := newTestServer(t, Config{})
	const d, g = 2, 4
	pi := pops.VectorReversal(d * g)
	first, err := client.Route(context.Background(), d, g, pi)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported a cache hit")
	}
	second, err := client.Route(context.Background(), d, g, pi)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated permutation was not served from the cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatalf("fingerprint changed between identical requests: %s vs %s", first.Fingerprint, second.Fingerprint)
	}
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits < 1 {
		t.Fatalf("stats.cache_hits = %d, want ≥ 1", stats.CacheHits)
	}
}

// TestMicroBatchCoalescesIdenticalRequests proves the coalescing claim: N
// concurrent identical requests produce at most one planner invocation.
// Requests arriving while the permutation is being planned join that
// flight; later ones hit the plan cache it filled. Planner work is counted
// by the shard's cache misses — every planner invocation for a cold cache
// is exactly one miss.
func TestMicroBatchCoalescesIdenticalRequests(t *testing.T) {
	const n = 16
	svc, _ := newTestServer(t, Config{})
	const d, g = 4, 4
	pi := pops.VectorReversal(d * g)

	var wg sync.WaitGroup
	results := make([]Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Route(context.Background(), d, g, pi, "")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if res.Plan == nil {
			t.Fatalf("request %d: no plan", i)
		}
	}
	stats := svc.Stats()
	if len(stats.Shards) != 1 {
		t.Fatalf("shard count = %d, want 1", len(stats.Shards))
	}
	sh := stats.Shards[0]
	// ≤1 planner invocation: a planner run on a cold cache is exactly one
	// miss, and coalesced duplicates never reach the planner.
	if sh.Cache.Misses > 1 {
		t.Fatalf("cache misses = %d: %d identical concurrent requests took more than one planner invocation", sh.Cache.Misses, n)
	}
	if sh.Requests != n {
		t.Fatalf("shard requests = %d, want %d", sh.Requests, n)
	}
}

// TestBatchRequestCarriesPerEntryErrors checks the wire-level batch
// contract mirrors Planner.RouteBatch: good entries plan, bad entries carry
// their own error, nothing fails the whole request.
func TestBatchRequestCarriesPerEntryErrors(t *testing.T) {
	_, client := newTestServer(t, Config{})
	const d, g = 2, 4
	pis := [][]int{
		pops.VectorReversal(d * g),
		{0, 1, 2},
		pops.IdentityPermutation(d * g),
	}
	plans, err := client.RouteBatch(context.Background(), d, g, pis)
	if err != nil {
		t.Fatal(err)
	}
	if plans[0].Error != "" || plans[2].Error != "" {
		t.Fatalf("valid entries failed: %+v", plans)
	}
	if plans[1].Error == "" {
		t.Fatal("invalid entry did not carry an error")
	}
	if plans[0].Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("slots = %d", plans[0].Slots)
	}
}

// TestShardLRUEvictionBoundsLiveShards drives more shapes than MaxShards
// and checks the registry stays bounded, evicted shards drain cleanly, and
// their cache counters survive in the totals.
func TestShardLRUEvictionBoundsLiveShards(t *testing.T) {
	svc, client := newTestServer(t, Config{MaxShards: 2})
	shapes := []struct{ d, g int }{{2, 2}, {2, 3}, {2, 4}, {3, 3}, {2, 2}}
	for _, shape := range shapes {
		pi := pops.VectorReversal(shape.d * shape.g)
		if _, err := client.Route(context.Background(), shape.d, shape.g, pi); err != nil {
			t.Fatalf("POPS(%d,%d): %v", shape.d, shape.g, err)
		}
	}
	stats := svc.Stats()
	if stats.ShardCount > 2 {
		t.Fatalf("shard count = %d exceeds MaxShards = 2", stats.ShardCount)
	}
	if stats.EvictedShards == 0 {
		t.Fatal("no shards were evicted across 4 distinct shapes")
	}
	// 5 routes: every lookup (hit or miss) must be preserved across
	// eviction in the aggregated totals.
	if stats.CacheHits+stats.CacheMisses != 5 {
		t.Fatalf("aggregate lookups = %d, want 5", stats.CacheHits+stats.CacheMisses)
	}
	if stats.Requests != 5 {
		t.Fatalf("requests = %d, want 5", stats.Requests)
	}
}

// TestStrategySelection routes through a non-default strategy and checks it
// bypasses the cache but still plans correctly.
func TestStrategySelection(t *testing.T) {
	_, client := newTestServer(t, Config{})
	const d, g = 4, 4
	// The staircase permutation is single-slot routable, so Auto must pick
	// the one-slot router over Theorem 2's two slots.
	pi := perms.Staircase(d, g)
	resp, err := client.Do(context.Background(), &pops.ServiceRouteRequest{
		D: d, G: g, Pi: pi, Strategy: "auto", IncludeSchedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := resp.Plans[0]
	if plan.Error != "" {
		t.Fatal(plan.Error)
	}
	if plan.Strategy != "singleslot" {
		t.Fatalf("auto picked %q for the staircase, want singleslot", plan.Strategy)
	}
	if plan.Slots != 1 {
		t.Fatalf("slots = %d, want 1", plan.Slots)
	}
	if _, err := popsnet.VerifyPermutationRouted(plan.Schedule, pi); err != nil {
		t.Fatal(err)
	}
	// Unknown strategies are request-level errors.
	if _, err := client.Do(context.Background(), &pops.ServiceRouteRequest{D: d, G: g, Pi: pi, Strategy: "nonsense"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestRequestValidation covers the request-level failure modes of the HTTP
// surface.
func TestRequestValidation(t *testing.T) {
	_, client := newTestServer(t, Config{})
	ctx := context.Background()
	// Invalid shape.
	if _, err := client.Route(ctx, 0, 4, []int{0}); err == nil {
		t.Fatal("invalid shape accepted")
	}
	// Neither pi nor pis.
	if _, err := client.Do(ctx, &pops.ServiceRouteRequest{D: 2, G: 2}); err == nil {
		t.Fatal("empty request accepted")
	}
	// Both pi and pis.
	pi := pops.IdentityPermutation(4)
	if _, err := client.Do(ctx, &pops.ServiceRouteRequest{D: 2, G: 2, Pi: pi, Pis: [][]int{pi}}); err == nil {
		t.Fatal("request with both pi and pis accepted")
	}
	// Slots endpoint validates too.
	if _, err := client.Slots(ctx, -1, 3); err == nil {
		t.Fatal("invalid /slots shape accepted")
	}
	if slots, err := client.Slots(ctx, 8, 8); err != nil || slots != 2 {
		t.Fatalf("slots(8,8) = %d, %v; want 2", slots, err)
	}
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyHistogramBucketBoundaries pins the documented bucket semantics
// of the /stats latency histogram: bucket i counts (2^(i−1), 2^i]
// microseconds, with exact powers of two in their own bucket and a final
// unbounded overflow bucket.
func TestLatencyHistogramBucketBoundaries(t *testing.T) {
	var h obs.Histogram
	h.Observe(0)
	h.Observe(time.Microsecond)     // exactly 1µs → bucket 0 (≤1µs)
	h.Observe(2 * time.Microsecond) // exactly 2µs → bucket 1 (≤2µs)
	h.Observe(3 * time.Microsecond) // 3µs → bucket 2 (≤4µs)
	h.Observe(time.Hour)            // beyond the last bound → overflow
	snap := h.Snapshot()
	if snap[0].Count != 2 || snap[1].Count != 1 || snap[2].Count != 1 {
		t.Fatalf("low buckets = %+v, want counts 2,1,1", snap[:3])
	}
	last := snap[len(snap)-1]
	if last.LEMicros != 0 || last.Count != 1 {
		t.Fatalf("overflow bucket = %+v, want unbounded with count 1", last)
	}
}

// TestCloseDrainsInFlightAndRejectsNew checks graceful shutdown: requests
// admitted before Close get answers, requests after get ErrClosed, and the
// health endpoint flips.
func TestCloseDrainsInFlightAndRejectsNew(t *testing.T) {
	svc := New(Config{PlannerOptions: []pops.Option{pops.WithParallelism(1)}})
	const d, g = 4, 4
	const n = 8
	pis := make([][]int, n)
	for i := range pis {
		pi, err := pops.MeshShift(d, g, i%d, i%g)
		if err != nil {
			t.Fatal(err)
		}
		pis[i] = pi
	}
	// With the shard's one planning slot held, every request is admitted
	// and waiting at the gate: only a slot freed during Close's drain can
	// answer them.
	sh, err := svc.shardFor(d, g)
	if err != nil {
		t.Fatal(err)
	}
	release := holdSlots(sh)
	waiters := make([]<-chan outcome, n)
	for i, pi := range pis {
		waiters[i] = routeAsync(context.Background(), sh, pi, "")
	}
	awaitWaiters(t, sh, n)
	closed := make(chan struct{})
	go func() {
		svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while admitted requests were still waiting")
	case <-time.After(50 * time.Millisecond):
	}
	start := time.Now()
	release()
	<-closed
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("drain took %v after the slot freed", waited)
	}
	for i, ch := range waiters {
		out := <-ch
		if out.err != nil {
			t.Fatalf("admission failed: %v", out.err)
		}
		if out.res.Err != nil || out.res.Plan == nil {
			t.Fatalf("in-flight request %d lost across shutdown: %+v", i, out.res)
		}
	}
	if _, err := svc.Route(context.Background(), d, g, pops.VectorReversal(d*g), ""); err != ErrClosed {
		t.Fatalf("post-close route error = %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}
