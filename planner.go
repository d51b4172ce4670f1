package pops

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pops/internal/core"
	"pops/internal/perms"
)

// Planner is the entry point for planning workloads on one POPS(d, g)
// network: the network shape is validated once, and the internal
// demand-graph, coloring-arena and invariant-check buffers of the planners
// are recycled across calls instead of reallocated per workload. It is what
// a routing service should hold per network shape. Workloads — permutations,
// h-relations, the complete exchange, broadcasts — are executed by the one
// pair of context-aware methods Execute and ExecuteStream.
//
// A Planner is safe for concurrent use: it keeps a free list of per-worker
// core planners (bounded by WithParallelism), so concurrent Execute calls
// and RouteBatch workers never share scratch memory.
//
// With WithPlanCache(n), the planner additionally memoizes up to n plans
// keyed by the workload fingerprint (WorkloadFingerprint — for permutations
// exactly PermutationFingerprint): recurring workloads (BPC families, mesh
// shifts, the all-to-all exchange) are answered from the cache instead of
// replanned. Hits return the same *Plan pointer to every caller, so plans
// must be treated as immutable — which Plan's read-only method set already
// assumes.
type Planner struct {
	nw    Network
	opts  Options
	par   int
	free  chan *core.Planner
	cache *planCache // nil without WithPlanCache
}

// NewPlanner validates the POPS(d, g) shape once and returns a Planner for
// it. WithParallelism bounds the worker pool of RouteBatch and the size of
// the internal buffer free list; the default is GOMAXPROCS.
func NewPlanner(d, g int, opts ...Option) (*Planner, error) {
	nw, err := NewNetwork(d, g)
	if err != nil {
		return nil, err
	}
	o := NewOptions(opts...)
	par := o.Workers()
	p := &Planner{nw: nw, opts: o, par: par, free: make(chan *core.Planner, par)}
	if o.PlanCache > 0 {
		p.cache = newPlanCache(o.PlanCache)
	}
	return p, nil
}

// Network returns the planner's POPS(d, g) shape.
func (p *Planner) Network() Network { return p.nw }

func (p *Planner) acquire() *core.Planner {
	select {
	case pl := <-p.free:
		return pl
	default:
		return core.NewPlannerFor(p.nw, p.opts)
	}
}

func (p *Planner) release(pl *core.Planner) {
	select {
	case p.free <- pl:
	default: // free list full; let the extra planner be collected
	}
}

// observePlan notifies the installed PlanObserver, if any, of one completed
// plan. start is when the caller began the route (before the cache lookup),
// so cached observations measure the hit path, not planning.
func (p *Planner) observePlan(strategy string, cached bool, start time.Time) {
	if o := p.opts.Observer; o != nil {
		o.ObservePlan(strategy, cached, time.Since(start))
	}
}

// routeOne plans pi on the worker pl through the fingerprint cache when one
// is configured: a verified hit skips planning entirely, a miss plans and
// memoizes.
func (p *Planner) routeOne(pl *core.Planner, pi []int) (*Plan, error) {
	start := time.Now()
	var fp uint64
	if p.cache != nil {
		fp = perms.Fingerprint(pi)
		if plan, ok := p.cache.get(fp, cacheKindPermutation, pi); ok {
			p.observePlan(plan.Strategy, true, start)
			return plan, nil
		}
	}
	plan, err := pl.PlanCtx(context.Background(), pi)
	if err != nil {
		return nil, err
	}
	if p.cache != nil {
		p.cache.put(fp, cacheKindPermutation, pi, plan)
	}
	p.observePlan(plan.Strategy, false, start)
	return plan, nil
}

// CachedPlan reports whether pi's plan is currently memoized, returning it
// on a verified hit. The lookup counts toward CacheStats like any other.
// Without WithPlanCache it reports false and counts nothing.
func (p *Planner) CachedPlan(pi []int) (*Plan, bool) {
	return p.CachedWorkload(Permutation(pi))
}

// CachedWorkload reports whether w's plan is currently memoized, returning
// it on a verified hit. The lookup counts toward CacheStats like any other.
// Without WithPlanCache it reports false and counts nothing.
func (p *Planner) CachedWorkload(w Workload) (*Plan, bool) {
	if p.cache == nil || w == nil {
		return nil, false
	}
	key, kind, ident := workloadKey(w)
	return p.cache.get(key, kind, ident)
}

// CacheStats returns a snapshot of the fingerprint plan cache counters. The
// zero CacheStats is returned when the planner was built without
// WithPlanCache.
func (p *Planner) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.snapshot()
}

// PredictedSlots returns the slot count of every Permutation workload this
// planner executes: OptimalSlots(d, g), independent of the permutation.
func (p *Planner) PredictedSlots() int { return OptimalSlots(p.nw.D, p.nw.G) }

// BatchError records the failure of one permutation within a RouteBatch
// call. The joined error RouteBatch returns is built from one BatchError per
// failing index; callers needing per-index attribution unwrap the join
// (errors.Join's Unwrap() []error) and errors.As each element.
type BatchError struct {
	Index int   // position of the failing permutation in the batch
	Err   error // the underlying planning error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("pops: batch permutation %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying planning error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// RouteBatch plans every permutation of pis on a bounded worker pool
// (WithParallelism workers) and returns the plans in input order. Results
// are identical to calling Execute with a Permutation workload sequentially
// on each permutation: workers only amortize allocations, they do not
// change the construction.
//
// All entries are planned even when some fail. Successful plans are always
// returned at their indices; a failing permutation leaves a nil plan at its
// index, and the returned error is the errors.Join of one *BatchError per
// failing index (nil when every permutation planned). With WithPlanCache,
// each permutation is first looked up in the fingerprint cache.
func (p *Planner) RouteBatch(pis [][]int) ([]*Plan, error) {
	plans := make([]*Plan, len(pis))
	errs := make([]error, len(pis))
	core.ForEach(p.par, len(pis), p.acquire, p.release, func(pl *core.Planner, i int) {
		var err error
		if plans[i], err = p.routeOne(pl, pis[i]); err != nil {
			errs[i] = &BatchError{Index: i, Err: err}
		}
	})
	return plans, errors.Join(errs...)
}
