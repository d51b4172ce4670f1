// Package edgecolor implements bipartite edge coloring — the constructive
// core of Theorem 1 of Mei & Rizzi. By König's edge-coloring theorem a
// bipartite multigraph with maximum degree Δ admits a proper Δ-edge-coloring,
// and a k-regular bipartite multigraph decomposes into k perfect matchings
// (a 1-factorization).
//
// Three factorization algorithms are provided, mirroring the algorithm menu
// of the paper's Remark 1:
//
//   - RepeatedMatching: extract k perfect matchings with Hopcroft–Karp,
//     O(k·m·√n). The simple baseline.
//   - EulerSplitDC: divide and conquer — Euler-split even-degree graphs,
//     peel one perfect matching (Alon's Euler-halving) at odd degrees,
//     ≈O(m·log²) in practice. The approach behind Kapoor–Rizzi and Rizzi.
//   - Insertion: the classic alternating-path insertion proof of König's
//     theorem, O(n·m); colors arbitrary (non-regular) bipartite multigraphs
//     with Δ colors, corresponding to the O(Δm)-style bound of Schrijver.
//
// All three run on the arena-backed Factorizer engine: an iterative work
// stack over index-range views of one edge array, bit-vector membership
// sets, and matching/splitting routines that write into reusable buffers.
// Planners that color repeatedly hold a Factorizer (one per worker) and stay
// allocation-free after warm-up.
//
// Balanced colorings with exact color-class sizes — the actual statement of
// Theorem 1, needed when the network has fewer packets per group than groups
// (d < g) — are in balanced.go.
package edgecolor

import (
	"fmt"

	"pops/internal/graph"
)

// Algorithm selects a 1-factorization strategy.
type Algorithm int

const (
	// RepeatedMatching extracts perfect matchings one at a time with
	// Hopcroft–Karp.
	RepeatedMatching Algorithm = iota
	// EulerSplitDC recursively halves the graph with Euler splits, peeling a
	// perfect matching (Alon Euler-halving) when the degree is odd.
	EulerSplitDC
	// Insertion colors edges one at a time, repairing conflicts along
	// alternating paths (the constructive proof of König's theorem).
	Insertion
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case RepeatedMatching:
		return "repeated-matching"
	case EulerSplitDC:
		return "euler-split"
	case Insertion:
		return "insertion"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// colorInsertionInto properly edge-colors an arbitrary bipartite multigraph
// with Δ = max degree colors using alternating-path repairs, in O(n·m) time.
// It writes the color of every edge into colors (indexed by edge ID, length
// b.NumEdges(), fully overwritten) and returns the number of colors Δ. The
// per-node color tables live in the Factorizer as flat slices
// (node*Δ+color indexing) and the alternating path reuses one buffer, so
// steady-state calls do not allocate.
func (f *Factorizer) colorInsertionInto(colors []int, b *graph.Bipartite) (int, error) {
	delta := b.MaxDegree()
	nL, nR := b.NLeft(), b.NRight()
	// colL[l*Δ+c] / colR[r*Δ+c] = edge ID with color c at that node, or -1.
	f.colL = graph.ResizeInts(f.colL, nL*delta)
	f.colR = graph.ResizeInts(f.colR, nR*delta)
	for i := range f.colL {
		f.colL[i] = -1
	}
	for i := range f.colR {
		f.colR[i] = -1
	}
	for i := range colors {
		colors[i] = -1
	}

	for id := 0; id < b.NumEdges(); id++ {
		e := b.Edge(id)
		a := freeAt(f.colL, e.L, delta)
		bFree := freeAt(f.colR, e.R, delta)
		if a == -1 || bFree == -1 {
			return 0, fmt.Errorf("edgecolor: no free color at edge %d (degree bookkeeping broken)", id)
		}
		if f.colR[e.R*delta+a] == -1 {
			f.assign(colors, b, delta, id, a)
			continue
		}
		if f.colL[e.L*delta+bFree] == -1 {
			f.assign(colors, b, delta, id, bFree)
			continue
		}
		// a is free at L but used at R; bFree is free at R but used at L.
		// Swap colors a <-> bFree along the alternating path starting from
		// e.R via its a-colored edge. The path can never reach e.L: every
		// arrival at a left node uses color a, which is free at e.L.
		f.swapAlternating(colors, b, delta, e.R, a, bFree)
		if f.colR[e.R*delta+a] != -1 || f.colL[e.L*delta+a] != -1 {
			return 0, fmt.Errorf("edgecolor: alternating swap failed to free color %d at edge %d", a, id)
		}
		f.assign(colors, b, delta, id, a)
	}
	return delta, nil
}

// freeAt returns the first color with no edge at node v, or -1.
func freeAt(tab []int, v, delta int) int {
	row := tab[v*delta : (v+1)*delta]
	for c, id := range row {
		if id == -1 {
			return c
		}
	}
	return -1
}

func (f *Factorizer) assign(colors []int, b *graph.Bipartite, delta, id, c int) {
	e := b.Edge(id)
	colors[id] = c
	f.colL[e.L*delta+c] = id
	f.colR[e.R*delta+c] = id
}

// swapAlternating exchanges colors a and bc along the maximal alternating
// path starting at right node r with an a-colored edge. The path is
// collected first and recolored afterwards: recoloring while walking would
// overwrite the table entry that points at the next path edge.
func (f *Factorizer) swapAlternating(colors []int, b *graph.Bipartite, delta, r, a, bc int) {
	f.path = f.path[:0]
	curRight := true
	v := r
	want := a
	for {
		var id int
		if curRight {
			id = f.colR[v*delta+want]
		} else {
			id = f.colL[v*delta+want]
		}
		if id == -1 {
			break
		}
		f.path = append(f.path, id)
		e := b.Edge(id)
		if curRight {
			v = e.L
		} else {
			v = e.R
		}
		curRight = !curRight
		if want == a {
			want = bc
		} else {
			want = a
		}
	}
	// Clear all old entries, then set all new ones. Consecutive path edges
	// share a node but receive different new colors, so the set phase never
	// collides with itself.
	for _, id := range f.path {
		e := b.Edge(id)
		c := colors[id]
		f.colL[e.L*delta+c] = -1
		f.colR[e.R*delta+c] = -1
	}
	for _, id := range f.path {
		e := b.Edge(id)
		c := colors[id]
		nc := a
		if c == a {
			nc = bc
		}
		colors[id] = nc
		f.colL[e.L*delta+nc] = id
		f.colR[e.R*delta+nc] = id
	}
}

// Verify checks that colors (indexed by edge ID, values in [0, numColors))
// is a proper edge coloring of b: no node has two incident edges of the same
// color. If exactClassSize >= 0 it additionally checks that every color
// class has exactly that many edges. It returns nil if all checks pass.
func Verify(b *graph.Bipartite, colors []int, numColors, exactClassSize int) error {
	if len(colors) != b.NumEdges() {
		return fmt.Errorf("edgecolor: %d colors for %d edges", len(colors), b.NumEdges())
	}
	classSize := make([]int, numColors)
	seenL := make(map[[2]int]int)
	seenR := make(map[[2]int]int)
	for id, c := range colors {
		if c < 0 || c >= numColors {
			return fmt.Errorf("edgecolor: edge %d has color %d outside [0,%d)", id, c, numColors)
		}
		classSize[c]++
		e := b.Edge(id)
		if prev, dup := seenL[[2]int{e.L, c}]; dup {
			return fmt.Errorf("edgecolor: left node %d has color %d on edges %d and %d", e.L, c, prev, id)
		}
		if prev, dup := seenR[[2]int{e.R, c}]; dup {
			return fmt.Errorf("edgecolor: right node %d has color %d on edges %d and %d", e.R, c, prev, id)
		}
		seenL[[2]int{e.L, c}] = id
		seenR[[2]int{e.R, c}] = id
	}
	if exactClassSize >= 0 {
		for c, size := range classSize {
			if size != exactClassSize {
				return fmt.Errorf("edgecolor: color class %d has %d edges, want %d", c, size, exactClassSize)
			}
		}
	}
	return nil
}

// ClassesToColors converts a list of color classes (edge-ID slices) into a
// per-edge color array for a graph with m edges. Unlisted edges get -1.
func ClassesToColors(m int, classes [][]int) []int {
	colors := make([]int, m)
	for i := range colors {
		colors[i] = -1
	}
	for c, class := range classes {
		for _, id := range class {
			colors[id] = c
		}
	}
	return colors
}
