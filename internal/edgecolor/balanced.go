package edgecolor

import (
	"fmt"

	"pops/internal/graph"
)

// BalancedInto computes the coloring at the heart of Theorem 1 of Mei &
// Rizzi: given a k-regular bipartite multigraph b with n nodes per side and
// a color count C with k ≤ C and C | n·k, it writes a proper edge coloring
// with C colors in which every color class has size exactly s = n·k/C.
//
// Construction (no padding graph; PaddedBalancedInto is the paper's proof):
//
//  1. 1-factorize b with algo into k perfect matchings of n edges each.
//  2. Cut every matching into runs of s consecutive edges, each run a class
//     of its own (any subset of a matching is a matching). When s | n —
//     every d | g POPS shape — this alone yields the C classes of exactly s
//     edges. Otherwise n = q·s + r, and the first r·k/s factors also cut
//     off their r-edge remainder as a class while the others keep it on
//     their last run, which gives exactly C classes of sizes r, s and s+r.
//  3. Equalize as in de Werra's equitable edge-coloring theorem for
//     bipartite multigraphs: while the largest class a is larger than s,
//     flip an alternating path of a ∪ smallest that holds one more edge of
//     a than of the smallest class (a Kempe step, see equalize).
//
// colors receives the color in [0, C) of every edge of b (indexed by edge
// ID, len(colors) == b.NumEdges()). Steady-state calls on a warmed arena do
// not allocate.
func (f *Factorizer) BalancedInto(colors []int, b *graph.Bipartite, colorCount int, algo Algorithm) error {
	f.streamGen++ // supersede any in-flight Stream; the arena is reused now
	k, c, err := balancedSetup(b, colorCount, len(colors))
	if err != nil || colorCount == 0 {
		return err
	}
	return f.balance(colors, b, k, colorCount, c, algo)
}

// cut says how a balanced coloring splits the factors of a k-regular graph
// with n nodes per side into C classes of size s = n·k/C. Factor j becomes
// classes base..base+count-1 (see classes); class base+t holds the factor's
// edges [t·size, (t+1)·size), except that the last one runs to n.
type cut struct {
	size int // class size s
	per  int // ⌊n/s⌋ runs of s edges fit in a factor
	rem  int // n mod s edges are left over
	full int // factors j < full cut their remainder off as a class of its own
}

// newCut returns the cut of n-edge factors into classes of size s. A plain
// 1-factorization (s == n) is the cut with one class per factor.
func newCut(n, size, k int) cut {
	if size == 0 {
		return cut{}
	}
	c := cut{size: size, per: n / size, rem: n % size}
	c.full = c.rem * k / size
	return c
}

// classes returns the first class and the class count of factor j.
func (c cut) classes(j int) (base, count int) {
	base = j*c.per + min(j, c.full)
	count = c.per
	if j < c.full {
		count++
	}
	return base, count
}

// run returns the class base+t of factor: its t-th run of the cut.
func (c cut) run(factor []int, t, count int) []int {
	if t == count-1 {
		return factor[t*c.size:]
	}
	return factor[t*c.size : (t+1)*c.size]
}

// color writes class base+t into colors for every edge of the factor's run t.
func (c cut) color(colors, factor []int, base, count int) {
	for t := 0; t < count; t++ {
		for _, id := range c.run(factor, t, count) {
			colors[id] = base + t
		}
	}
}

// exact reports whether the cut alone yields classes of exactly size edges.
func (c cut) exact() bool { return c.size > 0 && c.rem == 0 }

// balancedSetup validates a balanced-coloring instance and returns the
// regular degree k of b and the cut of its factors into classes. colorsLen
// is the caller's output-slice length, validated against b. Shared by the
// batch BalancedInto, the streaming StartBalanced and the padded reference,
// so all three accept exactly the same instances.
func balancedSetup(b *graph.Bipartite, colorCount, colorsLen int) (k int, c cut, err error) {
	n := b.NLeft()
	if n != b.NRight() {
		return 0, cut{}, fmt.Errorf("edgecolor: Balanced needs equal sides, got %d and %d", n, b.NRight())
	}
	k, ok := b.RegularDegree()
	if !ok {
		return 0, cut{}, graph.ErrNotBipartiteRegular
	}
	if colorCount < k {
		return 0, cut{}, fmt.Errorf("edgecolor: %d colors cannot properly color a %d-regular graph", colorCount, k)
	}
	if colorsLen != b.NumEdges() {
		return 0, cut{}, fmt.Errorf("edgecolor: %d color slots for %d edges", colorsLen, b.NumEdges())
	}
	if colorCount == 0 {
		return 0, cut{}, nil
	}
	if (n*k)%colorCount != 0 {
		return 0, cut{}, fmt.Errorf("edgecolor: %d colors do not divide %d edges evenly", colorCount, n*k)
	}
	return k, newCut(n, n*k/colorCount, k), nil
}

// balance is BalancedInto after validation: it drains algo's stepper,
// writes each factor's runs as their classes, then equalizes the class
// sizes when the cut alone does not.
func (f *Factorizer) balance(colors []int, b *graph.Bipartite, k, colorCount int, c cut, algo Algorithm) error {
	if err := f.stepStart(b, k, algo); err != nil {
		return err
	}
	for {
		j, factor, ok, err := f.step(algo, colors, b)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		base, count := c.classes(j)
		c.color(colors, factor, base, count)
	}
	if c.exact() {
		return nil
	}
	return f.equalize(colors, b, colorCount, c.size)
}

// equalize turns a proper coloring with colorCount classes into one whose
// classes all have exactly size edges, by Kempe steps. Take a largest class
// a and a smallest class s. Their union is a disjoint set of alternating
// paths and even cycles, and since |a| > |s| one of the paths holds one
// more a-edge than s-edges. Such a path has odd length, so one end is a
// left node with an a-edge and no s-edge; swapping a and s along it moves
// one edge from a to s and keeps the coloring proper. The sum of squared
// class sizes drops with every step, so the loop ends with every class at
// size. The flip tables are the arena's Recolorer, re-indexed in place.
func (f *Factorizer) equalize(colors []int, b *graph.Bipartite, colorCount, size int) error {
	r := &f.rec
	if err := r.index(b, colors, colorCount); err != nil {
		return fmt.Errorf("edgecolor: internal error: %w", err)
	}
	f.classCount = graph.ResizeInts(f.classCount, colorCount)
	count := f.classCount
	clear(count)
	for _, c := range colors {
		count[c]++
	}
	for {
		big, small := 0, 0
		for c, n := range count {
			if n > count[big] {
				big = c
			}
			if n < count[small] {
				small = c
			}
		}
		if count[big] == size {
			r.g, r.colors = nil, nil // do not retain the caller's graph
			return nil
		}
		// One scan of the left nodes flips every qualifying path it meets
		// while both classes are still off size: a flip only touches its own
		// component, so the scan's remaining candidates stay valid.
		flipped := false
		for l := 0; l < r.nL && count[big] > size && count[small] < size; l++ {
			e := r.EdgeAtL(l, big)
			if e < 0 || r.EdgeAtL(l, small) >= 0 {
				continue
			}
			if comp := r.Component(e, small); len(comp)%2 == 1 {
				r.FlipComponent(comp, big, small)
				count[big]--
				count[small]++
				flipped = true
			}
		}
		if !flipped {
			return fmt.Errorf("edgecolor: internal error: no alternating path from class %d (%d edges) to class %d (%d edges)",
				big, count[big], small, count[small])
		}
	}
}

// PaddedBalancedInto is the reference construction of Theorem 1, the
// paper's own proof (Section 3.1). It writes the same kind of coloring as
// BalancedInto — C classes of exactly n·k/C edges — but by padding: add
// n − s new nodes on each side, join new left nodes to every original right
// node and new right nodes to every original left node by round-robin
// biregular graphs in which new nodes have degree C and original nodes gain
// degree C − k, and 1-factorize the C-regular padded graph with algo. Each
// of its perfect matchings uses 2·(n − s) padding edges, so it holds exactly
// s real edges. It allocates a fresh padded graph and arena per call and
// serves as the cross-check (and golden reference) for BalancedInto.
func PaddedBalancedInto(colors []int, b *graph.Bipartite, colorCount int, algo Algorithm) error {
	_, c, err := balancedSetup(b, colorCount, len(colors))
	if err != nil || colorCount == 0 {
		return err
	}
	n := b.NLeft()
	pad := n - c.size // |V| = |V'|
	if pad == 0 {
		// C == k: a plain 1-factorization already has classes of size n.
		return NewFactorizer().FactorizeInto(colors, b, algo)
	}

	// Real edges first so their IDs are preserved.
	side := n + pad
	p := graph.New(side, side)
	for id := 0; id < b.NumEdges(); id++ {
		e := b.Edge(id)
		p.AddEdge(e.L, e.R)
	}
	// H1: new left nodes (degree C) vs original right nodes (degree C-k).
	// Round-robin keeps both degree constraints exact; parallel edges are
	// fine in a multigraph (they arise whenever C > n).
	h1 := pad * colorCount // == n*(colorCount-k)
	for e := 0; e < h1; e++ {
		p.AddEdge(n+e/colorCount, e%n)
	}
	// H2: original left nodes (degree C-k) vs new right nodes (degree C).
	for e := 0; e < h1; e++ {
		p.AddEdge(e%n, n+e/colorCount)
	}
	if !p.IsRegular(colorCount) {
		return fmt.Errorf("edgecolor: internal error: padded graph is not %d-regular", colorCount)
	}
	padColors := make([]int, p.NumEdges())
	if err := NewFactorizer().FactorizeInto(padColors, p, algo); err != nil {
		return fmt.Errorf("edgecolor: factorizing padded graph: %w", err)
	}
	copy(colors, padColors[:b.NumEdges()])
	return Verify(b, colors, colorCount, c.size)
}
