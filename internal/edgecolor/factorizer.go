package edgecolor

import (
	"fmt"

	"pops/internal/graph"
	"pops/internal/matching"
	"pops/internal/simd/bitvec"
)

// Factorizer is a reusable arena for bipartite edge coloring — the
// allocation-free engine of every coloring in this package. One Factorizer
// amortizes every piece of scratch the factorization algorithms need across
// calls:
//
//   - the Euler-split divide and conquer runs as an iterative work stack
//     over index-range views of a single edge-ID array, instead of
//     materializing a subgraph per recursion level;
//   - matched-edge membership is tracked in bit vectors
//     (internal/simd/bitvec word walks), not map[int]bool;
//   - the matching routines (Hopcroft–Karp, the Alon Euler-halving perfect
//     matcher) and the Euler splitter write into caller-provided buffers
//     owned by the arena (matching.Matcher, graph.Splitter);
//   - the BalancedInto padding graph is rebuilt in place (graph.Reset) when the
//     shape repeats.
//
// After a warm-up call per shape, FactorizeInto and BalancedInto perform no
// heap allocations. The zero value is ready to use. A Factorizer is not
// safe for concurrent use; hold one per worker (core.Planner does).
//
// The engine is deterministic and produces exactly the color classes of the
// historical recursive implementation (pinned by the package golden test):
// segment order mirrors subgraph edge-ID order, and class indices are
// assigned by precomputed base offsets that reproduce the recursion's
// concatenation order.
type Factorizer struct {
	matcher matching.Matcher
	split   graph.Splitter

	ids        []int        // edge IDs, permuted in place; a segment [lo,hi) is one subproblem
	edges      []graph.Edge // endpoints of the current segment, gathered per work item
	outA, outB []int        // Euler-split halves (segment-local indices)
	tmp        []int        // segment reorder scratch
	match      []int        // matching output (segment-local indices)
	rest       []int        // unmatched-index word-walk output
	inMatch    bitvec.Vec
	stack      []segTask
	factorBuf  []int // edge IDs of the factor peeled by a matching step
	realBuf    []int // factorBuf filtered to real (unpadded) edge IDs

	// Repeated-matching resumption state: the round about to be extracted
	// and the live segment length. The Euler-split stepper needs no extra
	// state — its work stack is the resumable position.
	repRound, repK, repLen int

	// streamGen invalidates the in-flight Stream (see Start) whenever
	// another arena entry point reuses the factorization scratch.
	streamGen uint64

	// Insertion coloring scratch: flat color tables and the alternating
	// path, see colorInsertionInto.
	colL, colR []int
	path       []int

	// Balanced scratch: the Theorem 1 padding graph and its coloring.
	padded     *graph.Bipartite
	padColors  []int
	classCount []int
}

// segTask is one pending subproblem of the Euler-split divide and conquer:
// the k-regular sub-multigraph holding the edges ids[lo:hi], whose color
// classes are base..base+k-1. Bases are precomputed on the way down, so
// tasks can run in any order and still reproduce the recursion's class
// numbering (A-half classes, then B-half classes; peeled matching last).
type segTask struct {
	lo, hi, k, base int
}

// NewFactorizer returns an empty arena. The zero value works too; New is
// for callers that want to share one behind a pointer.
func NewFactorizer() *Factorizer { return &Factorizer{} }

// Factorize decomposes a k-regular bipartite multigraph with equal sides
// into k perfect matchings, returned as freshly allocated slices of edge
// IDs (ascending within each class), one slice per color class. The arena
// is reused across calls; only the returned classes are allocated.
func (f *Factorizer) Factorize(b *graph.Bipartite, algo Algorithm) ([][]int, error) {
	k, _ := b.RegularDegree() // validated (with the side check first) by FactorizeInto
	colors := make([]int, b.NumEdges())
	if err := f.FactorizeInto(colors, b, algo); err != nil {
		return nil, err
	}
	classes := make([][]int, k)
	for id, c := range colors {
		classes[c] = append(classes[c], id)
	}
	return classes, nil
}

// FactorizeInto decomposes a k-regular bipartite multigraph with equal
// sides into k perfect matchings, writing the class index of every edge
// into colors (indexed by edge ID, len(colors) == b.NumEdges()). It returns
// an error if the graph is not regular or the sides differ. Steady-state
// calls on a warmed arena do not allocate.
func (f *Factorizer) FactorizeInto(colors []int, b *graph.Bipartite, algo Algorithm) error {
	if b.NLeft() != b.NRight() {
		return fmt.Errorf("edgecolor: sides differ (%d vs %d)", b.NLeft(), b.NRight())
	}
	k, ok := b.RegularDegree()
	if !ok {
		return graph.ErrNotBipartiteRegular
	}
	if len(colors) != b.NumEdges() {
		return fmt.Errorf("edgecolor: %d color slots for %d edges", len(colors), b.NumEdges())
	}
	f.streamGen++ // supersede any in-flight Stream; the arena is reused now
	switch algo {
	case RepeatedMatching:
		return f.factorizeRepeated(colors, b, k)
	case EulerSplitDC:
		return f.factorizeEuler(colors, b, k)
	case Insertion:
		c, err := f.colorInsertionInto(colors, b)
		if err != nil {
			return err
		}
		if c > k {
			return fmt.Errorf("edgecolor: insertion used %d colors on %d-regular graph", c, k)
		}
		return nil
	default:
		return fmt.Errorf("edgecolor: unknown algorithm %v", algo)
	}
}

// prepare sizes the shared view buffers for an m-edge instance and resets
// the segment array to the identity.
func (f *Factorizer) prepare(m, nL int) {
	f.ids = graph.ResizeInts(f.ids, m)
	for i := range f.ids {
		f.ids[i] = i
	}
	f.edges = graph.ResizeEdges(f.edges, m)
	f.tmp = graph.ResizeInts(f.tmp, m)
	f.outA = graph.ResizeInts(f.outA, m/2)
	f.outB = graph.ResizeInts(f.outB, m/2)
	f.match = graph.ResizeInts(f.match, nL)
	if cap(f.rest) < m {
		f.rest = make([]int, 0, m)
	}
	if cap(f.factorBuf) < nL {
		f.factorBuf = make([]int, 0, nL)
	}
	if cap(f.realBuf) < nL {
		f.realBuf = make([]int, 0, nL)
	}
}

// gather copies the endpoints of the segment's edges into the arena's edge
// buffer, establishing the view the splitter and matcher operate on:
// segment-local index i is edge seg[i] of b.
func (f *Factorizer) gather(all []graph.Edge, seg []int) []graph.Edge {
	view := f.edges[:len(seg)]
	for i, id := range seg {
		view[i] = all[id]
	}
	return view
}

// compact drops the matched segment-local indices (bits of f.inMatch) from
// ids[lo:lo+segLen], preserving order, and returns the surviving length.
// The scan is a bitvec word walk over the complement.
func (f *Factorizer) compact(lo, segLen int) int {
	f.rest = f.inMatch.AppendClear(f.rest[:0], segLen)
	for w, i := range f.rest {
		f.ids[lo+w] = f.ids[lo+i]
	}
	return len(f.rest)
}

// eulerStart seeds the Euler-split work stack for a fresh factorization.
// The k == 0 (empty) instance leaves the stack empty, so the first
// eulerNext reports exhaustion.
func (f *Factorizer) eulerStart(b *graph.Bipartite, k int) {
	m := b.NumEdges()
	f.prepare(m, b.NLeft())
	f.stack = f.stack[:0]
	if k > 0 {
		f.stack = append(f.stack, segTask{lo: 0, hi: m, k: k, base: 0})
	}
}

// eulerNext resumes the Euler-split divide and conquer until exactly one
// more 1-factor is complete: it halves even-degree segments with the arena
// splitter, peels one perfect matching (Alon Euler-halving) at odd degrees,
// and colors whole segments at degree one. The completed factor's class
// index is written into colors for each of its edges, whose IDs are
// returned in factor (arena-owned, valid until the next arena call).
// ok is false once every factor has been produced.
func (f *Factorizer) eulerNext(colors []int, all []graph.Edge, nL, nR int) (factorID int, factor []int, ok bool, err error) {
	for len(f.stack) > 0 {
		t := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		seg := f.ids[t.lo:t.hi]
		switch {
		case t.k == 1:
			for _, id := range seg {
				colors[id] = t.base
			}
			// seg is never revisited: segments are disjoint and this one
			// leaves the stack for good, so it is safe to hand out.
			return t.base, seg, true, nil
		case t.k%2 == 1:
			view := f.gather(all, seg)
			nMatch, err := f.matcher.PerfectMatchingRegularInto(nL, t.k, view, f.match)
			if err != nil {
				return 0, nil, false, fmt.Errorf("edgecolor: peeling matching at degree %d: %w", t.k, err)
			}
			f.inMatch = f.inMatch.Resize(len(seg))
			f.factorBuf = f.factorBuf[:0]
			for _, j := range f.match[:nMatch] {
				id := seg[j]
				colors[id] = t.base + t.k - 1
				f.factorBuf = append(f.factorBuf, id)
				f.inMatch.Set(j)
			}
			restLen := f.compact(t.lo, len(seg))
			f.stack = append(f.stack, segTask{lo: t.lo, hi: t.lo + restLen, k: t.k - 1, base: t.base})
			return t.base + t.k - 1, f.factorBuf, true, nil
		default:
			view := f.gather(all, seg)
			nA, _, err := f.split.Split(nL, nR, view, f.outA, f.outB)
			if err != nil {
				return 0, nil, false, err
			}
			// Reorder the segment to A-half then B-half, in traversal order
			// — the order a materialized subgraph would list its edges in.
			nB := len(seg) - nA
			for j := 0; j < nA; j++ {
				f.tmp[j] = seg[f.outA[j]]
			}
			for j := 0; j < nB; j++ {
				f.tmp[nA+j] = seg[f.outB[j]]
			}
			copy(seg, f.tmp[:len(seg)])
			f.stack = append(f.stack,
				segTask{lo: t.lo + nA, hi: t.hi, k: t.k / 2, base: t.base + t.k/2},
				segTask{lo: t.lo, hi: t.lo + nA, k: t.k / 2, base: t.base})
		}
	}
	return 0, nil, false, nil
}

// factorizeEuler drains the Euler-split stepper — the batch path and
// Stream.Next resume exactly the same loop, so their colorings cannot
// diverge.
func (f *Factorizer) factorizeEuler(colors []int, b *graph.Bipartite, k int) error {
	f.eulerStart(b, k)
	all := b.EdgeList()
	nL, nR := b.NLeft(), b.NRight()
	for {
		_, _, ok, err := f.eulerNext(colors, all, nL, nR)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// repStart resets the repeated-matching resumption state.
func (f *Factorizer) repStart(b *graph.Bipartite, k int) {
	m := b.NumEdges()
	f.prepare(m, b.NLeft())
	f.repRound, f.repK, f.repLen = 0, k, m
}

// repNext extracts one more perfect matching with Hopcroft–Karp and compacts
// the surviving segment. Same contract as eulerNext.
func (f *Factorizer) repNext(colors []int, all []graph.Edge, nL, nR int) (factorID int, factor []int, ok bool, err error) {
	if f.repRound >= f.repK {
		return 0, nil, false, nil
	}
	round := f.repRound
	view := f.gather(all, f.ids[:f.repLen])
	nMatch := f.matcher.HopcroftKarpInto(nL, nR, view, f.match)
	if nMatch != nL {
		return 0, nil, false, fmt.Errorf("edgecolor: round %d: matching size %d of %d (graph not regular?)",
			round, nMatch, nL)
	}
	f.inMatch = f.inMatch.Resize(f.repLen)
	f.factorBuf = f.factorBuf[:0]
	for _, j := range f.match[:nMatch] {
		id := f.ids[j]
		colors[id] = round
		f.factorBuf = append(f.factorBuf, id)
		f.inMatch.Set(j)
	}
	f.repLen = f.compact(0, f.repLen)
	f.repRound++
	return round, f.factorBuf, true, nil
}

// factorizeRepeated drains the repeated-matching stepper (see
// factorizeEuler on why batch and stream share it).
func (f *Factorizer) factorizeRepeated(colors []int, b *graph.Bipartite, k int) error {
	f.repStart(b, k)
	all := b.EdgeList()
	nL, nR := b.NLeft(), b.NRight()
	for {
		_, _, ok, err := f.repNext(colors, all, nL, nR)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}
