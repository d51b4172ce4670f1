package edgecolor

import (
	"fmt"

	"pops/internal/graph"
)

// BalancedInto computes the coloring at the heart of Theorem 1 of Mei &
// Rizzi: given a k-regular bipartite multigraph b with n nodes per side and
// a color count C with k ≤ C and C | n·k, it writes a proper edge coloring
// with C colors in which every color class has size exactly Δ2 = n·k/C.
//
// Construction (the paper's proof, Section 3.1): add |V| = n − Δ2 new nodes
// on each side. New left nodes are joined to every original right node and
// new right nodes to every original left node by round-robin biregular
// padding graphs H2 and H1 in which new nodes have degree C and original
// nodes gain degree C − k. The padded graph is C-regular on (2n − Δ2)-node
// sides; König's theorem decomposes it into C perfect matchings; each
// matching uses 2·(n − Δ2) padding edges, so it contains exactly Δ2 real
// edges — the required balanced classes.
//
// colors receives the color in [0, C) of every edge of b (indexed by edge
// ID, len(colors) == b.NumEdges()). The padding graph is rebuilt in place
// when the shape repeats — the common case for a planner coloring a stream
// of demand graphs on one network — so steady-state calls do not allocate.
func (f *Factorizer) BalancedInto(colors []int, b *graph.Bipartite, colorCount int, algo Algorithm) error {
	f.streamGen++ // supersede any in-flight Stream; the arena is reused now
	classSize, padded, err := f.balancedSetup(b, colorCount, len(colors))
	if err != nil || colorCount == 0 {
		return err
	}
	if padded == nil {
		// C == k: a plain 1-factorization already has classes of size n.
		return f.FactorizeInto(colors, b, algo)
	}

	f.padColors = graph.ResizeInts(f.padColors, padded.NumEdges())
	if err := f.FactorizeInto(f.padColors, padded, algo); err != nil {
		return fmt.Errorf("edgecolor: factorizing padded graph: %w", err)
	}
	f.classCount = graph.ResizeInts(f.classCount, colorCount)
	for c := range f.classCount {
		f.classCount[c] = 0
	}
	for id := 0; id < b.NumEdges(); id++ {
		c := f.padColors[id]
		colors[id] = c
		f.classCount[c]++
	}
	for c, size := range f.classCount {
		if size != classSize {
			return fmt.Errorf("edgecolor: internal error: class %d has %d real edges, want %d",
				c, size, classSize)
		}
	}
	return nil
}

// balancedSetup validates a balanced-coloring instance and, when padding is
// needed (classSize < n), rebuilds the Theorem 1 padded graph in the arena
// and returns it; a nil padded graph means a plain 1-factorization of b
// already has the required class sizes. colorsLen is the caller's
// output-slice length, validated against b. Shared by the batch BalancedInto and the
// streaming StartBalanced so both factorize the identical instance.
func (f *Factorizer) balancedSetup(b *graph.Bipartite, colorCount, colorsLen int) (classSize int, padded *graph.Bipartite, err error) {
	n := b.NLeft()
	if n != b.NRight() {
		return 0, nil, fmt.Errorf("edgecolor: Balanced needs equal sides, got %d and %d", n, b.NRight())
	}
	k, ok := b.RegularDegree()
	if !ok {
		return 0, nil, graph.ErrNotBipartiteRegular
	}
	if colorCount < k {
		return 0, nil, fmt.Errorf("edgecolor: %d colors cannot properly color a %d-regular graph", colorCount, k)
	}
	if colorsLen != b.NumEdges() {
		return 0, nil, fmt.Errorf("edgecolor: %d color slots for %d edges", colorsLen, b.NumEdges())
	}
	if colorCount == 0 {
		return 0, nil, nil
	}
	if (n*k)%colorCount != 0 {
		return 0, nil, fmt.Errorf("edgecolor: %d colors do not divide %d edges evenly", colorCount, n*k)
	}
	classSize = n * k / colorCount
	pad := n - classSize // |V| = |V'|
	if pad < 0 {
		return 0, nil, fmt.Errorf("edgecolor: class size %d exceeds side size %d", classSize, n)
	}
	if pad == 0 {
		return classSize, nil, nil
	}

	// Build the padded graph into the arena. Real edges first so their IDs
	// are preserved.
	side := n + pad
	if f.padded == nil || f.padded.NLeft() != side || f.padded.NRight() != side {
		f.padded = graph.New(side, side)
	} else {
		f.padded.Reset()
	}
	p := f.padded
	for id := 0; id < b.NumEdges(); id++ {
		e := b.Edge(id)
		p.AddEdge(e.L, e.R)
	}
	// H1: new left nodes (degree C) vs original right nodes (degree C-k).
	// Round-robin keeps both degree constraints exact; parallel edges are
	// fine in a multigraph (they arise whenever C > n).
	h1 := pad * colorCount // == n*(colorCount-k)
	for c := 0; c < h1; c++ {
		p.AddEdge(n+c/colorCount, c%n)
	}
	// H2: original left nodes (degree C-k) vs new right nodes (degree C).
	for c := 0; c < h1; c++ {
		p.AddEdge(c%n, n+c/colorCount)
	}
	if !p.IsRegular(colorCount) {
		return 0, nil, fmt.Errorf("edgecolor: internal error: padded graph is not %d-regular", colorCount)
	}
	return classSize, p, nil
}
