package service

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pops"
	"pops/internal/obs"
	"pops/internal/perms"
	"pops/internal/wire"
)

// errShardRetired is returned by admission when the shard was evicted
// between the registry lookup and admission; callers re-resolve the shard
// and retry.
var errShardRetired = errors.New("service: shard retired")

// Result is the outcome of one admitted request: a plan or a per-entry
// planning error, plus whether the plan came from the fingerprint cache.
type Result struct {
	Plan   *pops.Plan
	Cached bool
	Err    error
}

// tenantBucket is one tenant's token bucket on one shard: tokens are debited
// at admission while the gate's wait is contended and credited back in
// proportion to the tenant's weight as requests are answered, so refill is
// coupled to the shard's actual service rate — no separate rate
// configuration to drift out of sync with planner speed.
type tenantBucket struct {
	weight float64
	tokens float64
}

// planTimeAdapter feeds the planner's PlanObserver callbacks into the
// service-wide per-(d, g, strategy) plan-time table.
type planTimeAdapter struct {
	pt   *obs.PlanTimes
	d, g int
}

func (a planTimeAdapter) ObservePlan(strategy string, cached bool, d time.Duration) {
	a.pt.Observe(a.d, a.g, strategy, cached, d)
}

// observerChain fans one planner observation out to several observers, so a
// caller-supplied WithPlanObserver in Config.PlannerOptions composes with
// the service's plan-time table instead of being overridden by it.
type observerChain []pops.PlanObserver

func (c observerChain) ObservePlan(strategy string, cached bool, d time.Duration) {
	for _, o := range c {
		o.ObservePlan(strategy, cached, d)
	}
}

// flight is one default-strategy permutation being planned in a slot.
// Identical permutations admitted meanwhile join it instead of planning
// again; joiners counts them, and res is readable once done is closed.
type flight struct {
	pi      []int
	joiners uint64
	done    chan struct{}
	res     Result
}

// shard serves one POPS(d, g) shape: a pops.Planner with a fingerprint plan
// cache behind one admission gate. Every unary request — default-strategy
// and named-strategy permutations, RouteMany entries, Execute workloads —
// passes the same gate: a semaphore of planning slots (the planner's
// WithParallelism workers), a wait for a free slot bounded by QueueDepth,
// the per-tenant quotas, and a singleflight that coalesces identical
// default-strategy permutations onto one planner invocation.
type shard struct {
	key shapeKey
	svc *Service

	planner *pops.Planner

	// mu orders admissions against close: admitters hold the read lock
	// across the closed check and the drain registration, so once close
	// has flipped closed under the write lock, no request can join a drain
	// group its closer is already waiting on.
	mu     sync.RWMutex
	closed bool
	active sync.WaitGroup // admitted unary requests not yet answered

	// slots holds one token per planning slot in use; waiting counts the
	// requests waiting for a slot or on a flight, bounded by QueueDepth.
	slots   chan struct{}
	waiting atomic.Int64

	flightMu sync.Mutex
	flights  map[uint64][]*flight

	routersMu sync.Mutex
	routers   map[string]pops.Router

	// buckets holds the per-tenant admission quotas (TenantMix): while the
	// wait is contended, each admission debits the tenant's bucket and each
	// answered request credits every bucket by its weight share.
	tenantMu sync.Mutex
	buckets  map[string]*tenantBucket

	requests atomic.Uint64
	streams  atomic.Uint64
	// batches counts planner invocations made by the gate, batched the
	// requests they answered (joiners included), maxBatch the largest
	// coalesced group.
	batches  atomic.Uint64
	batched  atomic.Uint64
	maxBatch atomic.Uint64

	// sheds counts overload rejections at this shard's bounds (wait bound,
	// tenant quota, stream cap); deadlineSheds the waiters whose context
	// expired before they got a planning slot.
	sheds         atomic.Uint64
	deadlineSheds atomic.Uint64
	// activeStreams holds the live occupancy against MaxStreams.
	activeStreams atomic.Int64
}

func newShard(s *Service, d, g int) (*shard, error) {
	opts := append([]pops.Option(nil), s.cfg.PlannerOptions...)
	if s.cfg.CacheSize > 0 {
		opts = append(opts, pops.WithPlanCache(s.cfg.CacheSize))
	}
	var observer pops.PlanObserver = planTimeAdapter{pt: s.tracer.Plan, d: d, g: g}
	user := pops.NewOptions(s.cfg.PlannerOptions...)
	if user.Observer != nil {
		observer = observerChain{user.Observer, observer.(planTimeAdapter)}
	}
	opts = append(opts, pops.WithPlanObserver(observer))
	planner, err := pops.NewPlanner(d, g, opts...)
	if err != nil {
		return nil, err
	}
	return &shard{
		key:     shapeKey{d, g},
		svc:     s,
		planner: planner,
		slots:   make(chan struct{}, user.Workers()),
		flights: make(map[uint64][]*flight),
		routers: make(map[string]pops.Router),
		buckets: make(map[string]*tenantBucket),
	}, nil
}

// route serves one permutation. The default strategy plans on the shard's
// planner and coalesces with an identical permutation already being
// planned; a named strategy runs its router in a planning slot. The
// returned error is request-level: a retired shard, an unknown strategy, a
// dead context, or an overload verdict — never a planning failure, which
// travels in Result.Err.
func (sh *shard) route(ctx context.Context, pi []int, strategy string) (Result, error) {
	if strategy == "" || strategy == pops.StrategyTheoremTwo {
		return sh.gate(ctx, pi, func(ctx context.Context) (Result, error) {
			return sh.plan(ctx, pops.Permutation(pi))
		})
	}
	r, err := sh.routerFor(strategy)
	if err != nil {
		return Result{}, err
	}
	return sh.gate(ctx, nil, func(ctx context.Context) (Result, error) {
		// Routers have no internal phase hooks, so their whole routing time
		// is the factorize phase and one plan-time observation.
		start := time.Now()
		plan, err := r.Route(pi)
		dur := time.Since(start)
		obs.SpanFromContext(ctx).Add(obs.PhaseFactorize, dur)
		if plan != nil {
			sh.svc.tracer.Plan.Observe(sh.key.d, sh.key.g, plan.Strategy, false, dur)
		}
		return Result{Plan: plan, Err: err}, nil
	})
}

// execute serves one non-permutation workload through the gate; the
// planner's plan cache answers recurring workloads.
func (sh *shard) execute(ctx context.Context, w pops.Workload) (Result, error) {
	return sh.gate(ctx, nil, func(ctx context.Context) (Result, error) {
		return sh.plan(ctx, w)
	})
}

// plan executes w on the shard's planner. Context errors are request-level:
// the caller went away and nothing was planned. Workload errors (bad
// permutations, bad speakers) stay per-entry.
func (sh *shard) plan(ctx context.Context, w pops.Workload) (Result, error) {
	plan, cached, err := sh.planner.ExecuteCached(ctx, w)
	if err != nil {
		if ctx.Err() != nil {
			return Result{}, ctx.Err()
		}
		return Result{Err: err}, nil
	}
	return Result{Plan: plan, Cached: cached}, nil
}

// enter runs the admission checks every request shares, streams included:
// it refuses an already-expired context, a retired shard and an exhausted
// tenant quota, and registers the request with the drain group wg. It
// reports whether a tenant token was debited, so a later refusal can
// refund it.
func (sh *shard) enter(ctx context.Context, tenant string, wg *sync.WaitGroup) (debited bool, err error) {
	if err := ctx.Err(); err != nil {
		// The caller is already gone (deadline passed or hung up); refuse
		// rather than planning for nobody.
		return false, err
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.closed {
		return false, errShardRetired
	}
	debited, ok := sh.tenantAdmit(tenant)
	if !ok {
		return false, sh.shed(tenant, "admission")
	}
	wg.Add(1)
	return debited, nil
}

// gate admits one unary request and runs plan in a planning slot. A free
// slot is taken at once; otherwise the request waits, and the wait is
// bounded: past QueueDepth waiters the request sheds immediately with a
// typed *pops.OverloadError, so callers learn to back off in admission
// time rather than queueing time. A waiter whose context ends before it
// gets a slot is a deadline shed and never reaches the planner.
//
// pi non-nil marks a default-strategy permutation: it joins an identical
// permutation already being planned (a joiner counts against the wait
// bound and abandons only its own wait when its context ends), or else
// plans as a flight under context.WithoutCancel(ctx), so its joiners get
// their answer whatever happens to the request that started it. The wait
// is charged to the span's queue phase.
func (sh *shard) gate(ctx context.Context, pi []int, plan func(context.Context) (Result, error)) (Result, error) {
	tenant := pops.TenantFromContext(ctx)
	debited, err := sh.enter(ctx, tenant, &sh.active)
	if err != nil {
		return Result{}, err
	}
	defer sh.active.Done()
	start := time.Now()
	var fp uint64
	if pi != nil {
		fp = pops.PermutationFingerprint(pi)
		sh.flightMu.Lock()
		if f := sh.flightLocked(fp, pi); f != nil {
			if !sh.reserveWait() {
				sh.flightMu.Unlock()
				return Result{}, sh.refuse(tenant, "admission", debited)
			}
			f.joiners++
			sh.flightMu.Unlock()
			sh.admitted(tenant)
			return sh.await(ctx, f, start)
		}
		sh.flightMu.Unlock()
	}

	if err := sh.acquire(ctx, tenant, debited, start); err != nil {
		return Result{}, err
	}
	obs.SpanFromContext(ctx).Add(obs.PhaseQueue, time.Since(start))

	if pi == nil {
		res, err := plan(ctx)
		<-sh.slots
		sh.answered(1)
		return res, err
	}
	sh.flightMu.Lock()
	if f := sh.flightLocked(fp, pi); f != nil {
		// Another slot started the same permutation while this one waited.
		f.joiners++
		sh.waiting.Add(1)
		sh.flightMu.Unlock()
		<-sh.slots
		return sh.await(ctx, f, time.Now())
	}
	f := &flight{pi: pi, done: make(chan struct{})}
	sh.flights[fp] = append(sh.flights[fp], f)
	sh.flightMu.Unlock()

	// Without cancellation planning cannot fail at the request level: every
	// outcome, planning errors included, is in the Result.
	f.res, _ = plan(context.WithoutCancel(ctx))

	sh.flightMu.Lock()
	if rest := slices.DeleteFunc(sh.flights[fp], func(o *flight) bool { return o == f }); len(rest) > 0 {
		sh.flights[fp] = rest
	} else {
		delete(sh.flights, fp)
	}
	joiners := f.joiners
	sh.flightMu.Unlock()
	close(f.done)
	<-sh.slots
	sh.answered(1 + joiners)
	return f.res, nil
}

// acquire takes a planning slot for a request that passed enter: a free one
// at once, else after a wait within the QueueDepth bound. It sheds the
// request when the wait is full, and counts a deadline shed when ctx ends
// before a slot frees.
func (sh *shard) acquire(ctx context.Context, tenant string, debited bool, start time.Time) error {
	select {
	case sh.slots <- struct{}{}:
		sh.admitted(tenant)
		return nil
	default:
	}
	if !sh.reserveWait() {
		return sh.refuse(tenant, "admission", debited)
	}
	sh.admitted(tenant)
	defer sh.waiting.Add(-1)
	select {
	case sh.slots <- struct{}{}:
		if ctx.Err() == nil {
			return nil
		}
		<-sh.slots
	case <-ctx.Done():
	}
	obs.SpanFromContext(ctx).Add(obs.PhaseQueue, time.Since(start))
	sh.deadlineSheds.Add(1)
	sh.svc.tenant(tenant).deadlineShed.Add(1)
	return ctx.Err()
}

// flightLocked returns the flight planning exactly pi, if any. Callers hold
// flightMu.
func (sh *shard) flightLocked(fp uint64, pi []int) *flight {
	for _, f := range sh.flights[fp] {
		if perms.Equal(f.pi, pi) {
			return f
		}
	}
	return nil
}

// await waits for a joined flight's result; the joiner's own context ending
// abandons only its wait, never the flight.
func (sh *shard) await(ctx context.Context, f *flight, start time.Time) (Result, error) {
	defer func() {
		sh.waiting.Add(-1)
		obs.SpanFromContext(ctx).Add(obs.PhaseQueue, time.Since(start))
	}()
	select {
	case <-f.done:
		return f.res, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// reserveWait claims one position in the gate's bounded wait, reporting
// false when QueueDepth requests are already waiting.
func (sh *shard) reserveWait() bool {
	if sh.waiting.Add(1) > int64(sh.svc.cfg.QueueDepth) {
		sh.waiting.Add(-1)
		return false
	}
	return true
}

// admitted counts one request past the gate's bounds.
func (sh *shard) admitted(tenant string) {
	sh.requests.Add(1)
	sh.svc.tenant(tenant).admitted.Add(1)
}

// answered records one planner invocation that answered n requests and
// credits the tenant buckets with the service it delivered.
func (sh *shard) answered(n uint64) {
	sh.batches.Add(1)
	sh.batched.Add(n)
	for {
		cur := sh.maxBatch.Load()
		if n <= cur || sh.maxBatch.CompareAndSwap(cur, n) {
			break
		}
	}
	sh.creditTenants(n)
}

// refuse sheds a request that passed enter at the named bound, refunding
// its tenant token.
func (sh *shard) refuse(tenant, queue string, debited bool) error {
	if debited {
		sh.refundTenant(tenant)
	}
	return sh.shed(tenant, queue)
}

// acquireStream claims one concurrent-stream slot, reporting false when
// MaxStreams is configured and exhausted. Stream.Close releases it.
func (sh *shard) acquireStream() bool {
	n := sh.activeStreams.Add(1)
	if max := sh.svc.cfg.MaxStreams; max > 0 && n > int64(max) {
		sh.activeStreams.Add(-1)
		return false
	}
	return true
}

func (sh *shard) releaseStream() { sh.activeStreams.Add(-1) }

// shed records one overload rejection against the shard and the tenant's
// fairness ledger, and builds the typed verdict with the shard's current
// backoff hint.
func (sh *shard) shed(tenant, queue string) error {
	sh.sheds.Add(1)
	sh.svc.tenant(tenant).shed.Add(1)
	ewma := sh.svc.tracer.Plan.EWMA(sh.key.d, sh.key.g, pops.StrategyTheoremTwo)
	return &pops.OverloadError{
		D: sh.key.d, G: sh.key.g, Tenant: tenant, Queue: queue,
		RetryAfter: retryAfter(ewma, int(sh.waiting.Load()), cap(sh.slots)),
	}
}

// retryAfter estimates when a shard can admit again: the rounds of slots
// the current waiters fill, plus one, times the measured plan time (the
// plan-time EWMA), clamped to a sane advertisable range.
func retryAfter(ewma time.Duration, waiters, slots int) time.Duration {
	hint := time.Duration(waiters/slots+1) * ewma
	return min(max(hint, 5*time.Millisecond), 2*time.Second)
}

// tenantAdmit charges one admission to the tenant's bucket. While the
// gate's wait is uncontended (less than half full) admission is free —
// quotas only bite when tenants are actually competing for planning slots,
// so an idle shard never throttles a bursty tenant. It reports whether a
// token was debited (so a later refusal can refund it) and whether the
// admission may proceed.
func (sh *shard) tenantAdmit(tenant string) (debited, ok bool) {
	if sh.waiting.Load()*2 < int64(sh.svc.cfg.QueueDepth) {
		return false, true
	}
	sh.tenantMu.Lock()
	defer sh.tenantMu.Unlock()
	b := sh.bucketLocked(tenant)
	if b.tokens >= 1 {
		b.tokens--
		return true, true
	}
	return false, false
}

// bucketLocked resolves (creating on first use) one tenant's bucket. A new
// tenant starts with its full burst so it is never shed before its first
// credit round. Callers hold tenantMu.
func (sh *shard) bucketLocked(tenant string) *tenantBucket {
	b := sh.buckets[tenant]
	if b == nil {
		b = &tenantBucket{weight: sh.svc.cfg.tenantWeight(tenant)}
		sh.buckets[tenant] = b
		b.tokens = sh.burstLocked(b)
	}
	return b
}

// burstLocked is the most tokens one bucket may hold: the tenant's weight
// share of the wait bound, floored at 1 so every tenant can always make
// progress. Callers hold tenantMu.
func (sh *shard) burstLocked(b *tenantBucket) float64 {
	var total float64
	for _, o := range sh.buckets {
		total += o.weight
	}
	return max(float64(sh.svc.cfg.QueueDepth)*b.weight/total, 1)
}

// creditTenants distributes n answered requests across the tenants by
// weight — the bucket refill is the gate's measured service rate, so a
// tenant's sustained admission rate converges on its weighted-fair share of
// whatever the planner can actually serve.
func (sh *shard) creditTenants(n uint64) {
	sh.tenantMu.Lock()
	defer sh.tenantMu.Unlock()
	if len(sh.buckets) == 0 {
		return
	}
	var total float64
	for _, b := range sh.buckets {
		total += b.weight
	}
	for _, b := range sh.buckets {
		b.tokens = min(b.tokens+float64(n)*b.weight/total, sh.burstLocked(b))
	}
}

// refundTenant returns one debited token after a refused admission.
func (sh *shard) refundTenant(tenant string) {
	sh.tenantMu.Lock()
	if b := sh.buckets[tenant]; b != nil {
		b.tokens++
	}
	sh.tenantMu.Unlock()
}

// routerFor lazily builds and caches the non-default strategy routers.
func (sh *shard) routerFor(strategy string) (pops.Router, error) {
	sh.routersMu.Lock()
	defer sh.routersMu.Unlock()
	if r, ok := sh.routers[strategy]; ok {
		return r, nil
	}
	r, err := pops.NewRouter(strategy, sh.key.d, sh.key.g, sh.svc.cfg.PlannerOptions...)
	if err != nil {
		return nil, err
	}
	sh.routers[strategy] = r
	return r, nil
}

// close stops admissions; requests admitted before it still complete, and
// active.Wait waits for them. Idempotent.
func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
}

// stats snapshots the shard's counters.
func (sh *shard) stats() wire.ShardStats {
	cs := sh.planner.CacheStats()
	return wire.ShardStats{
		D:               sh.key.d,
		G:               sh.key.g,
		Requests:        sh.requests.Load(),
		Streams:         sh.streams.Load(),
		Batches:         sh.batches.Load(),
		BatchedRequests: sh.batched.Load(),
		MaxBatch:        sh.maxBatch.Load(),
		QueueLen:        int(sh.waiting.Load()),
		QueueCap:        sh.svc.cfg.QueueDepth,
		Sheds:           sh.sheds.Load(),
		DeadlineSheds:   sh.deadlineSheds.Load(),
		ActiveStreams:   sh.activeStreams.Load(),
		Cache: wire.CacheStats{
			Hits:      cs.Hits,
			Misses:    cs.Misses,
			Evictions: cs.Evictions,
			Entries:   cs.Entries,
			Capacity:  cs.Capacity,
		},
	}
}
