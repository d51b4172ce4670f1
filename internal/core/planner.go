package core

import (
	"context"
	"fmt"
	"sync"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/obs"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// ForEach runs fn(pl, i) for every i in [0, n), fanning the indices out to at
// most workers goroutines. Each goroutine checks out its own *Planner through
// acquire/release, so scratch memory is never shared; with one worker (or a
// single item) everything runs on the calling goroutine. fn must record its
// own per-index results and errors — ForEach only partitions the work. It is
// the one worker-pool implementation behind the public Planner.RouteBatch and
// the per-factor routing of h-relations.
func ForEach(workers, n int, acquire func() *Planner, release func(*Planner), fn func(pl *Planner, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		pl := acquire()
		defer release(pl)
		for i := 0; i < n; i++ {
			fn(pl, i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl := acquire()
			defer release(pl)
			for i := range next {
				fn(pl, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Planner computes Theorem 2 routings repeatedly on one POPS(d, g) network.
// The network shape is validated once, and the demand multigraph, the
// edge-coloring arena, the permutation-validation scratch, and the
// invariant-check tables are reused across calls, so planning a stream of
// permutations allocates only what the returned Plans retain (colors,
// slots). A Planner is not safe for concurrent use; the public batch layer
// hands one Planner to each worker, so each worker owns one Factorizer
// arena.
type Planner struct {
	nw   popsnet.Network
	opts Options

	// Scratch reused across Plan calls: demand, fact and the invariant
	// scratch are nil for d = 1, where routing is direct and needs no
	// coloring. fact is the allocation-free edge-coloring engine — the
	// planner's dominant cost — whose arena (Euler-split work stack,
	// matching buffers, Theorem 1 padding graph) persists across calls.
	demand     *graph.Bipartite
	fact       *edgecolor.Factorizer
	seen       []bool  // perms.ValidateInto scratch
	byColor    [][]int // color -> packets of that color (invariant check)
	seenGroup  []bool  // group -> seen within current color class (undo-reset)
	byInter    [][]int // intermediate group -> packets of current round
	colorCount int     // max(d, g)

	// Streaming scratch (StartPlan): per-slot outstanding-class counters and
	// the sorted-class buffer, reused across streams.
	remaining []int
	classBuf  []int

	// H-relation scratch (PlanHRelation / StartHRelation), created lazily on
	// the first h-relation workload. hrelFact is a second coloring arena,
	// separate from fact: the request-graph factorization streams from it
	// while each peeled factor is routed as a permutation on fact, so the
	// two factorizations never supersede each other.
	hrelDemand *graph.Bipartite      // n×n request multigraph, Reset per call
	hrelFact   *edgecolor.Factorizer // request-graph 1-factorization arena
	hrelSrc    []int                 // per-processor send counts (padding)
	hrelDst    []int                 // per-processor receive counts (padding)
	hrelAll    []Request             // padded request list, reused
	hrelColors []int                 // per-request factor index, reused
	hrelPi     []int                 // factor permutation scratch
	hrelReqAt  []int                 // source processor -> request id scratch
	hrelIDs    []int                 // sorted copy of the current factor
}

// NewPlanner validates the POPS(d, g) shape and returns a Planner for it.
func NewPlanner(d, g int, opts Options) (*Planner, error) {
	nw, err := popsnet.NewNetwork(d, g)
	if err != nil {
		return nil, err
	}
	return NewPlannerFor(nw, opts), nil
}

// NewPlannerFor returns a Planner for an already-validated network.
func NewPlannerFor(nw popsnet.Network, opts Options) *Planner {
	pl := &Planner{nw: nw, opts: opts, seen: make([]bool, nw.N())}
	if nw.D > 1 {
		pl.demand = graph.New(nw.G, nw.G)
		pl.fact = edgecolor.NewFactorizer()
		pl.initBuildScratch()
	}
	return pl
}

// initBuildScratch allocates only what buildPlan needs (the invariant-check
// and schedule-construction scratch). The demand graph and validation
// scratch stay separate so the one-shot planFromColors path, which receives
// precomputed colors for an already-validated permutation, can skip them.
func (pl *Planner) initBuildScratch() {
	nw := pl.nw
	pl.colorCount = nw.D
	if nw.G > nw.D {
		pl.colorCount = nw.G
	}
	pl.byColor = make([][]int, pl.colorCount)
	pl.seenGroup = make([]bool, nw.G)
	pl.byInter = make([][]int, nw.G)
}

// Network returns the planner's network shape.
func (pl *Planner) Network() popsnet.Network { return pl.nw }

// Plan computes the Theorem 2 routing of pi, reusing the planner's internal
// buffers. The returned Plan owns all memory it references (pi is copied
// into it) and stays valid across subsequent Plan calls even if the caller
// reuses the pi slice.
func (pl *Planner) Plan(pi []int) (*Plan, error) {
	return pl.PlanCtx(context.Background(), pi)
}

// PlanCtx is Plan with a context: an already-cancelled ctx is reported as
// ctx.Err() before any planning work, and cancellation is re-checked after
// the coloring phase. The batch factorization itself is not interruptible —
// use StartPlanCtx for factor-granular cancellation.
func (pl *Planner) PlanCtx(ctx context.Context, pi []int) (*Plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := pl.nw
	if len(pi) != nw.N() {
		return nil, fmt.Errorf("core: permutation has length %d, want n = %d", len(pi), nw.N())
	}
	if err := perms.ValidateInto(pi, pl.seen); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// Phase attribution: demand build + coloring + schedule assembly are the
	// factorize phase, the optional simulator replay the verify phase. A span
	// left with an open phase by an error return is closed by its Finish.
	sp := obs.SpanFromContext(ctx)
	sp.Begin(obs.PhaseFactorize)
	var plan *Plan
	if nw.D == 1 {
		sched, err := directSchedule(nw, pi)
		if err != nil {
			return nil, err
		}
		plan = &Plan{Net: nw, Pi: copyPerm(pi), Strategy: StrategyTheoremTwo, sched: sched}
	} else {
		pl.demand.Reset()
		for p := 0; p < nw.N(); p++ {
			pl.demand.AddEdge(nw.Group(p), nw.Group(pi[p]))
		}
		// The colors slice is retained by the returned Plan, so it is the
		// one coloring allocation a warmed planner makes per call; all
		// factorization scratch lives in the reusable arena.
		colors := make([]int, nw.N())
		if err := pl.fact.BalancedInto(colors, pl.demand, pl.colorCount, pl.opts.Algorithm); err != nil {
			return nil, fmt.Errorf("core: coloring demand graph: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		plan, err = pl.buildPlan(pi, colors)
		if err != nil {
			return nil, err
		}
	}
	sp.End()
	if pl.opts.Verify {
		sp.Begin(obs.PhaseVerify)
		if _, err := plan.Verify(); err != nil {
			return nil, fmt.Errorf("core: schedule failed verification: %w", err)
		}
		sp.End()
	}
	return plan, nil
}

// buildPlan turns per-packet relay colors into the two-slot-per-round
// schedule and sanity-checks the fair-distribution invariants on the way.
// PlanStream.Next assembles the identical layout incrementally (per class
// at offset (c−lo)·want instead of byInter bucketing, which keeps this
// batch path O(n) with no per-class sort); the two must stay in lockstep —
// TestStartPlanCollectMatchesPlan and FuzzRouteStreamCollect pin the
// equivalence.
func (pl *Planner) buildPlan(pi, colors []int) (*Plan, error) {
	nw := pl.nw
	d, g := nw.D, nw.G
	colorCount := d
	if g > d {
		colorCount = g
	}
	rounds := ceilDiv(colorCount, g)

	if err := pl.checkFairInvariants(pi, colors, colorCount); err != nil {
		return nil, err
	}

	sched := &popsnet.Schedule{Net: nw, Slots: make([]popsnet.Slot, 0, 2*rounds)}
	for k := 0; k < rounds; k++ {
		lo, hi := k*g, (k+1)*g
		if hi > colorCount {
			hi = colorCount
		}
		// Packets of this round, grouped by intermediate group j = c mod g.
		byInter := pl.byInter
		moved := 0
		for j := range byInter {
			byInter[j] = byInter[j][:0]
		}
		for p := 0; p < nw.N(); p++ {
			if c := colors[p]; c >= lo && c < hi {
				byInter[c%g] = append(byInter[c%g], p) // j -> packets, in source order
				moved++
			}
		}
		slot1 := popsnet.Slot{Sends: make([]popsnet.Send, 0, moved), Recvs: make([]popsnet.Recv, 0, moved)}
		slot2 := popsnet.Slot{Sends: make([]popsnet.Send, 0, moved), Recvs: make([]popsnet.Recv, 0, moved)}
		for j := 0; j < g; j++ {
			// Arrivals at group j come from distinct source groups (the
			// coloring is proper at source nodes), and packet order is by
			// processor index, hence by source group: the rank assignment
			// below gives each arrival a distinct relay processor.
			for rank, p := range byInter[j] {
				src := p
				relay := nw.Proc(j, rank)
				dest := pi[p]
				slot1.Sends = append(slot1.Sends, popsnet.Send{Src: src, DestGroup: j, Packet: p})
				slot1.Recvs = append(slot1.Recvs, popsnet.Recv{Proc: relay, SrcGroup: nw.Group(src)})
				slot2.Sends = append(slot2.Sends, popsnet.Send{Src: relay, DestGroup: nw.Group(dest), Packet: p})
				slot2.Recvs = append(slot2.Recvs, popsnet.Recv{Proc: dest, SrcGroup: j})
			}
		}
		sched.Slots = append(sched.Slots, slot1, slot2)
	}

	return &Plan{Net: nw, Pi: copyPerm(pi), Strategy: StrategyTheoremTwo, Colors: colors, Rounds: rounds, sched: sched}, nil
}

// checkFairInvariants re-verifies equations (4)–(7) of the paper on the
// computed colors before a schedule is emitted. A violation indicates a bug
// in the coloring layer and is reported rather than silently producing a
// conflicting schedule.
func (pl *Planner) checkFairInvariants(pi, colors []int, colorCount int) error {
	nw := pl.nw
	if len(colors) != nw.N() {
		return fmt.Errorf("core: %d colors for %d packets", len(colors), nw.N())
	}
	// Bucket packets by color. The scratch is sized for the planner's own
	// colorCount; the list-system cross-check path passes the same max(d, g).
	byColor := pl.byColor[:colorCount]
	for c := range byColor {
		byColor[c] = byColor[c][:0]
	}
	for p, c := range colors {
		if c < 0 || c >= colorCount {
			return fmt.Errorf("core: packet %d has color %d outside [0,%d)", p, c, colorCount)
		}
		byColor[c] = append(byColor[c], p)
	}
	// Properness per color class: checkClass verifies equations (4)–(7) for
	// each bucket. The streaming planner runs the identical check per class
	// as each factor lands instead of over a bucketed table at the end.
	for c, class := range byColor {
		if err := pl.checkClass(pi, class, c); err != nil {
			return err
		}
	}
	return nil
}

// checkClass verifies the fair-distribution invariants for one color class:
// exactly min(d, g) packets (equations (5)/(7)) repeating neither a source
// group (eq (4)) nor a destination group (eq (6)). Each class touches at
// most min(d, g) groups, so one g-sized table with undo-resets keeps the
// whole check O(len(class)) regardless of the shape's aspect ratio.
func (pl *Planner) checkClass(pi, class []int, c int) error {
	nw := pl.nw
	d, g := nw.D, nw.G
	want := d
	if g < d {
		want = g
	}
	seen := pl.seenGroup
	if len(class) != want {
		return fmt.Errorf("core: eq (5)/(7) violated: color %d has %d packets, want %d", c, len(class), want)
	}
	for i, p := range class {
		h := nw.Group(p)
		if seen[h] {
			for _, q := range class[:i] {
				seen[nw.Group(q)] = false
			}
			return fmt.Errorf("core: eq (4) violated: source group %d repeats color %d", h, c)
		}
		seen[h] = true
	}
	for _, p := range class {
		seen[nw.Group(p)] = false
	}
	for i, p := range class {
		h := nw.Group(pi[p])
		if seen[h] {
			for _, q := range class[:i] {
				seen[nw.Group(pi[q])] = false
			}
			return fmt.Errorf("core: eq (6) violated: destination group %d repeats color %d", h, c)
		}
		seen[h] = true
	}
	for _, p := range class {
		seen[nw.Group(pi[p])] = false
	}
	return nil
}
