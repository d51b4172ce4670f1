// Package core implements the permutation routing algorithm of Mei & Rizzi
// (Theorem 2): a POPS(d, g) network routes any permutation π of its n = d·g
// processors in one slot when d = 1 and 2·⌈d/g⌉ slots when d > 1.
//
// The construction unifies the paper's two cases (1 < d ≤ g and d > g)
// through a single reduction. Build the demand multigraph with one edge per
// packet, from its source group to its destination group; because π is a
// permutation the graph is d-regular on g+g nodes. Color its edges with
// C = max(d, g) colors so that every color class has exactly min(d, g)
// edges (package edgecolor; for d < g this is the balanced coloring of
// Theorem 1, for d ≥ g a plain König 1-factorization). The color c of a
// packet encodes its relay: intermediate group c mod g in round ⌊c/g⌋. Each
// round takes two slots:
//
//	slot 1: every packet of the round is sent from its source to a relay
//	        processor in its intermediate group;
//	slot 2: relays forward the packets to their final destinations.
//
// Properness of the coloring at source groups makes slot 1 coupler-conflict
// free; properness at destination groups makes slot 2 conflict free; the
// exact class size bounds the number of arrivals per group by the number of
// processors. These are precisely invariants (4)–(7) of the paper, and the
// per-packet colors are exactly a fair distribution of the list system
// L(h, i) = group(π(i + h·d)).
//
// Plans are produced either one-shot (PlanRoute) or through a reusable
// Planner that validates the network once and recycles its internal demand
// graph and scratch buffers across calls — the building block of the public
// batch API.
package core

import (
	"fmt"
	"runtime"
	"time"

	"pops/internal/edgecolor"
	"pops/internal/fairdist"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// PlanObserver receives one observation per planned workload: the resolved
// strategy that produced the plan, whether it was answered from the plan
// cache, and how long planning (or the cache hit) took. The public layer
// invokes it on every Execute/stream completion; the serving layer
// installs an observer that feeds the per-(d, g, strategy) plan-time table
// behind /stats and /metrics. Implementations must be safe for concurrent
// use and should not block.
type PlanObserver interface {
	ObservePlan(strategy string, cached bool, d time.Duration)
}

// Options configures the planner.
type Options struct {
	// Algorithm selects the edge-coloring backend. The zero value — the
	// default — is RepeatedMatching (Hopcroft–Karp peeling); EulerSplitDC
	// is the near-linear divide-and-conquer alternative.
	Algorithm edgecolor.Algorithm
	// Verify replays every produced schedule on the slot-level simulator
	// before returning it; a simulation failure becomes a planning error.
	Verify bool
	// Parallelism bounds the worker pool of batch operations (the public
	// Planner's RouteBatch and h-relation factor routing). Zero or negative
	// means "pick a default" (GOMAXPROCS); a single planner call ignores it.
	Parallelism int
	// PlanCache bounds the fingerprint-keyed plan memoization of the public
	// Planner to this many entries (LRU). Zero or negative disables caching.
	// The cache lives in the public layer; core planners always plan.
	PlanCache int
	// Observer, when non-nil, is notified of every planned workload with its
	// resolved strategy, cache verdict, and measured planning time. Like the
	// cache, observation happens in the public layer; core planners never
	// call it themselves.
	Observer PlanObserver
}

// Workers resolves the Parallelism option to a concrete worker count: the
// option itself when positive, GOMAXPROCS otherwise. Every batch layer
// (Planner.RouteBatch, h-relation factor routing) sizes its pool with this.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Canonical names of the routing strategies that can produce a Plan. They
// appear in Plan.Strategy and in the public Router implementations.
// StrategyHRelation and StrategyOneToAll name the non-permutation workload
// planners of the unified Execute surface.
const (
	StrategyTheoremTwo    = "theorem2"
	StrategyGreedy        = "greedy"
	StrategyDirectOptimal = "direct-optimal"
	StrategySingleSlot    = "singleslot"
	StrategyAuto          = "auto"
	StrategyHRelation     = "hrelation"
	StrategyOneToAll      = "one-to-all"
	StrategyFaulty        = "faulty-permutation"
)

// Plan is a verified-constructible routing plan for one workload. It is the
// unified result type of every routing strategy and workload kind: the
// Theorem 2 relay router fills Colors/Rounds, direct strategies (greedy,
// direct optimal, single slot) carry only the schedule, h-relation plans
// fill Reqs/H/Factors instead of Pi, and one-to-all plans record the
// Speaker. Strategy records which planner produced the plan, and Verify
// replays the schedule under the matching delivery contract.
type Plan struct {
	Net      popsnet.Network
	Pi       []int
	Strategy string
	Colors   []int // per-packet relay color; nil for direct (relay-free) plans
	Rounds   int   // ⌈d/g⌉ for relayed plans, 0 for direct ones

	// H-relation section (Strategy == StrategyHRelation): the requests, the
	// relation degree, and Factors[k] — the request indices routed in the
	// k-th permutation round (dummy padding requests excluded), ascending.
	Reqs    []Request
	H       int
	Factors [][]int

	// Speaker is the broadcasting processor of a one-to-all plan.
	Speaker int

	// Faults is the canonical fault set a StrategyFaulty plan routed around.
	// Zero for every other strategy — and for fault requests whose set turned
	// out empty, which delegate to the normal planner (byte-identical plans).
	Faults popsnet.FaultSet

	sched *popsnet.Schedule
	// Delivery vectors of an h-relation plan: packet k starts at home[k] and
	// must end at want[k] (-1 for padding dummies). nil for permutation and
	// broadcast plans, whose Verify contracts are derived from Pi / Speaker.
	home, want []int
}

// FromSchedule wraps an already-built schedule as a Plan, recording the
// strategy that produced it. It is how the non-Theorem 2 routers (greedy,
// direct optimal, single slot) adopt the unified result type. pi is copied:
// a Plan owns all memory it references, so callers may reuse their slice.
func FromSchedule(nw popsnet.Network, pi []int, sched *popsnet.Schedule, strategy string) *Plan {
	return &Plan{Net: nw, Pi: copyPerm(pi), Strategy: strategy, sched: sched}
}

// copyPerm snapshots a caller-provided permutation so Plans never alias
// mutable caller memory (batch services routinely reuse request buffers).
func copyPerm(pi []int) []int {
	return append(make([]int, 0, len(pi)), pi...)
}

// OptimalSlots returns the slot count of Theorem 2: 1 when d = 1, and
// 2·⌈d/g⌉ when d > 1.
func OptimalSlots(d, g int) int {
	if d == 1 {
		return 1
	}
	return 2 * ceilDiv(d, g)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PlanRoute computes the Theorem 2 routing of permutation pi on POPS(d, g).
// The returned plan's schedule uses exactly OptimalSlots(d, g) slots. For
// routing many permutations on one network shape, prefer a Planner, which
// amortizes validation and scratch allocations across calls.
func PlanRoute(d, g int, pi []int, opts Options) (*Plan, error) {
	pl, err := NewPlanner(d, g, opts)
	if err != nil {
		return nil, err
	}
	return pl.Plan(pi)
}

// PlanRouteViaListSystem computes the same routing through the paper's
// literal Section 3.1 formalism: build the proper list system
// L(h, i) = group(π(i + h·d)), obtain a fair distribution f by Theorem 1,
// and use f(h, i) as the relay color of packet i + h·d. It exists to
// cross-check the unified demand-graph construction; both produce schedules
// with identical structure.
func PlanRouteViaListSystem(d, g int, pi []int, opts Options) (*Plan, error) {
	nw, err := popsnet.NewNetwork(d, g)
	if err != nil {
		return nil, err
	}
	if err := perms.Validate(pi); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(pi) != nw.N() {
		return nil, fmt.Errorf("core: permutation has length %d, want n = %d", len(pi), nw.N())
	}
	var plan *Plan
	if d == 1 {
		sched, err := directSchedule(nw, pi)
		if err != nil {
			return nil, err
		}
		plan = &Plan{Net: nw, Pi: copyPerm(pi), Strategy: StrategyTheoremTwo, sched: sched}
	} else {
		ls, err := fairdist.FromPermutation(d, g, pi)
		if err != nil {
			return nil, err
		}
		f, err := ls.FairDistribution(opts.Algorithm)
		if err != nil {
			return nil, fmt.Errorf("core: fair distribution: %w", err)
		}
		colors := make([]int, nw.N())
		for h := 0; h < g; h++ {
			for i := 0; i < d; i++ {
				colors[i+h*d] = f[h][i]
			}
		}
		plan, err = planFromColors(nw, pi, colors)
		if err != nil {
			return nil, err
		}
	}
	if opts.Verify {
		if _, err := plan.Verify(); err != nil {
			return nil, fmt.Errorf("core: schedule failed verification: %w", err)
		}
	}
	return plan, nil
}

// directSchedule is the d = 1 case: the network is a clique of couplers and
// one slot suffices (each processor is its own group).
func directSchedule(nw popsnet.Network, pi []int) (*popsnet.Schedule, error) {
	n := nw.N()
	slot := popsnet.Slot{
		Sends: make([]popsnet.Send, 0, n),
		Recvs: make([]popsnet.Recv, 0, n),
	}
	for p := 0; p < n; p++ {
		slot.Sends = append(slot.Sends, popsnet.Send{Src: p, DestGroup: pi[p], Packet: p})
		slot.Recvs = append(slot.Recvs, popsnet.Recv{Proc: pi[p], SrcGroup: p})
	}
	return &popsnet.Schedule{Net: nw, Slots: []popsnet.Slot{slot}}, nil
}

// planFromColors turns per-packet relay colors into the two-slot-per-round
// schedule, sanity-checking the fair-distribution invariants on the way. It
// is the one-shot form of (*Planner).buildPlan; callers reach it only for
// d > 1, with pi already validated, so just the build scratch is allocated.
func planFromColors(nw popsnet.Network, pi, colors []int) (*Plan, error) {
	pl := &Planner{nw: nw}
	pl.initBuildScratch()
	return pl.buildPlan(pi, colors)
}

// Schedule returns the plan's slot schedule.
func (p *Plan) Schedule() *popsnet.Schedule { return p.sched }

// SlotCount returns the number of slots the plan uses.
func (p *Plan) SlotCount() int { return len(p.sched.Slots) }

// Verify replays the schedule on the network simulator and checks that the
// plan's workload was delivered: every packet of a permutation plan at its
// destination π(p), every real request of an h-relation plan at its Dst, and
// the speaker's packet of a one-to-all plan at every processor. It returns
// the execution trace.
func (p *Plan) Verify() (*popsnet.Trace, error) {
	switch {
	case p.Strategy == StrategyFaulty:
		fn, err := p.Faults.Compile(p.Net)
		if err != nil {
			return nil, err
		}
		return popsnet.VerifyPermutationRoutedFaulty(p.sched, p.Pi, fn)
	case p.Strategy == StrategyHRelation:
		return popsnet.VerifyDelivery(p.sched, p.home, p.want)
	case p.Strategy == StrategyOneToAll:
		st, tr, err := popsnet.Run(p.sched)
		if err != nil {
			return nil, err
		}
		for proc := 0; proc < p.Net.N(); proc++ {
			if !st.Holds(proc, p.Speaker) {
				return tr, fmt.Errorf("core: processor %d did not receive the broadcast packet of speaker %d", proc, p.Speaker)
			}
		}
		return tr, nil
	default:
		return popsnet.VerifyPermutationRouted(p.sched, p.Pi)
	}
}

// IntermediateGroup returns the relay group of packet p in the plan, or -1
// for direct (relay-free) plans.
func (p *Plan) IntermediateGroup(packet int) int {
	if p.Colors == nil {
		return -1
	}
	return p.Colors[packet] % p.Net.G
}

// Round returns the round in which packet p moves, or 0 for direct plans.
func (p *Plan) Round(packet int) int {
	if p.Colors == nil {
		return 0
	}
	return p.Colors[packet] / p.Net.G
}
