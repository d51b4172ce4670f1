package edgecolor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pops/internal/graph"
)

func randomRegular(n, k int, rng *rand.Rand) *graph.Bipartite {
	b := graph.New(n, n)
	for j := 0; j < k; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			b.AddEdge(i, perm[i])
		}
	}
	return b
}

var allAlgorithms = []Algorithm{RepeatedMatching, EulerSplitDC, Insertion}

// balancedColors runs BalancedInto on a fresh arena.
func balancedColors(b *graph.Bipartite, colorCount int, algo Algorithm) ([]int, error) {
	colors := make([]int, b.NumEdges())
	return colors, NewFactorizer().BalancedInto(colors, b, colorCount, algo)
}

// insertionColors runs the insertion coloring on a fresh arena.
func insertionColors(b *graph.Bipartite) ([]int, int, error) {
	colors := make([]int, b.NumEdges())
	c, err := NewFactorizer().colorInsertionInto(colors, b)
	return colors, c, err
}

func checkFactorization(t *testing.T, b *graph.Bipartite, classes [][]int, k int) {
	t.Helper()
	if len(classes) != k {
		t.Fatalf("got %d classes, want %d", len(classes), k)
	}
	colors := ClassesToColors(b.NumEdges(), classes)
	for id, c := range colors {
		if c == -1 {
			t.Fatalf("edge %d uncolored", id)
		}
	}
	if err := Verify(b, colors, k, b.NLeft()); err != nil {
		t.Fatal(err)
	}
}

func TestFactorizeAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cases := []struct{ n, k int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 3}, {8, 8}, {16, 5}, {9, 7}, {12, 1},
	}
	for _, algo := range allAlgorithms {
		for _, tc := range cases {
			b := randomRegular(tc.n, tc.k, rng)
			classes, err := NewFactorizer().Factorize(b, algo)
			if err != nil {
				t.Fatalf("%v n=%d k=%d: %v", algo, tc.n, tc.k, err)
			}
			checkFactorization(t, b, classes, tc.k)
		}
	}
}

func TestFactorizeParallelEdgeBundles(t *testing.T) {
	// d parallel copies of a cyclic permutation: the demand multigraph of the
	// adversarial "whole group to next group" routing instance.
	for _, algo := range allAlgorithms {
		for _, d := range []int{1, 2, 5, 8} {
			g := 6
			b := graph.New(g, g)
			for c := 0; c < d; c++ {
				for h := 0; h < g; h++ {
					b.AddEdge(h, (h+1)%g)
				}
			}
			classes, err := NewFactorizer().Factorize(b, algo)
			if err != nil {
				t.Fatalf("%v d=%d: %v", algo, d, err)
			}
			checkFactorization(t, b, classes, d)
		}
	}
}

func TestFactorizeRejectsIrregular(t *testing.T) {
	b := graph.New(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	for _, algo := range []Algorithm{RepeatedMatching, EulerSplitDC} {
		if _, err := NewFactorizer().Factorize(b, algo); err == nil {
			t.Fatalf("%v accepted irregular graph", algo)
		}
	}
}

func TestFactorizeRejectsUnequalSides(t *testing.T) {
	if _, err := NewFactorizer().Factorize(graph.New(2, 3), RepeatedMatching); err == nil {
		t.Fatal("unequal sides accepted")
	}
}

func TestFactorizeUnknownAlgorithm(t *testing.T) {
	b := randomRegular(3, 2, rand.New(rand.NewSource(1)))
	if _, err := NewFactorizer().Factorize(b, Algorithm(99)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if RepeatedMatching.String() != "repeated-matching" ||
		EulerSplitDC.String() != "euler-split" ||
		Insertion.String() != "insertion" {
		t.Fatal("Algorithm String values changed")
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Fatal("unknown algorithm String")
	}
}

func TestColorInsertionNonRegular(t *testing.T) {
	// Arbitrary bipartite multigraph: Δ colors must suffice (König).
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 40; trial++ {
		nL := rng.Intn(10) + 1
		nR := rng.Intn(10) + 1
		m := rng.Intn(6 * (nL + nR))
		b := graph.New(nL, nR)
		for e := 0; e < m; e++ {
			b.AddEdge(rng.Intn(nL), rng.Intn(nR))
		}
		colors, c, err := insertionColors(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c != b.MaxDegree() {
			t.Fatalf("trial %d: used %d colors, Δ=%d", trial, c, b.MaxDegree())
		}
		if err := Verify(b, colors, max(c, 1), -1); err != nil && m > 0 {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestColorInsertionEmptyGraph(t *testing.T) {
	b := graph.New(3, 3)
	colors, c, err := insertionColors(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(colors) != 0 || c != 0 {
		t.Fatalf("empty graph: %d colors array, Δ=%d", len(colors), c)
	}
}

func TestColorInsertionTriggersAlternatingPath(t *testing.T) {
	// Force the swap: edges inserted so that the free colors at the two
	// endpoints of a later edge are disjoint.
	b := graph.New(2, 2)
	b.AddEdge(0, 0) // gets color 0
	b.AddEdge(1, 1) // gets color 0
	b.AddEdge(1, 0) // color 1 at both
	b.AddEdge(0, 1) // L0 free {1}? no: L0 has 0; R1 has 0,1 -> needs swap path
	b.AddEdge(0, 0)
	b.AddEdge(1, 1)
	colors, c, err := insertionColors(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(b, colors, c, -1); err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("Δ = %d, want 3", c)
	}
}

func TestColorInsertionProperty(t *testing.T) {
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%16 + 1
		k := int(kSeed)%6 + 1
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		colors, c, err := insertionColors(b)
		if err != nil || c != k {
			return false
		}
		return Verify(b, colors, c, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBalancedExactClassSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct{ n, k, colors int }{
		{4, 2, 4},   // d < g case shape: class size 2
		{6, 3, 6},   // class size 3
		{8, 8, 8},   // no padding
		{5, 1, 5},   // class size 1
		{6, 2, 3},   // C between k and n: class size 4
		{6, 2, 4},   // class size 3
		{9, 3, 9},   // class size 3
		{4, 3, 12},  // C > n: class size 1, heavy padding with parallel edges
		{3, 2, 6},   // C = 2n: class size 1
		{12, 4, 16}, // class size 3
	}
	for _, algo := range allAlgorithms {
		for _, tc := range cases {
			b := randomRegular(tc.n, tc.k, rng)
			colors, err := balancedColors(b, tc.colors, algo)
			if err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, tc.n, tc.k, tc.colors, err)
			}
			want := tc.n * tc.k / tc.colors
			if err := Verify(b, colors, tc.colors, want); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, tc.n, tc.k, tc.colors, err)
			}
		}
	}
}

func TestBalancedRejectsBadParameters(t *testing.T) {
	b := randomRegular(4, 3, rand.New(rand.NewSource(2)))
	if _, err := balancedColors(b, 2, RepeatedMatching); err == nil {
		t.Fatal("accepted fewer colors than degree")
	}
	if _, err := balancedColors(b, 5, RepeatedMatching); err == nil {
		t.Fatal("accepted color count not dividing edge count")
	}
	if _, err := balancedColors(graph.New(2, 3), 2, RepeatedMatching); err == nil {
		t.Fatal("accepted unequal sides")
	}
	irr := graph.New(2, 2)
	irr.AddEdge(0, 0)
	if _, err := balancedColors(irr, 2, RepeatedMatching); err == nil {
		t.Fatal("accepted irregular graph")
	}
}

func TestBalancedProperty(t *testing.T) {
	// Random (n, k) with C = n (the Theorem 2 d<g configuration).
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%12 + 1
		k := int(kSeed)%n + 1
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		colors, err := balancedColors(b, n, EulerSplitDC)
		if err != nil {
			return false
		}
		return Verify(b, colors, n, k) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	b := graph.New(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)

	if err := Verify(b, []int{0, 0, 1, 1}, 2, -1); err == nil {
		t.Fatal("double color at left node accepted")
	}
	if err := Verify(b, []int{0, 1, 0, 1}, 2, -1); err == nil {
		t.Fatal("double color at right node accepted")
	}
	if err := Verify(b, []int{0, 1}, 2, -1); err == nil {
		t.Fatal("wrong length accepted")
	}
	if err := Verify(b, []int{0, 1, 2, 0}, 2, -1); err == nil {
		t.Fatal("out-of-range color accepted")
	}
	if err := Verify(b, []int{0, 1, 1, 0}, 2, 1); err == nil {
		t.Fatal("wrong class size accepted")
	}
}

func TestVerifyAcceptsProper(t *testing.T) {
	b := graph.New(2, 2)
	b.AddEdge(0, 0) // color 0
	b.AddEdge(0, 1) // color 1
	b.AddEdge(1, 0) // color 1
	b.AddEdge(1, 1) // color 0
	if err := Verify(b, []int{0, 1, 1, 0}, 2, 2); err != nil {
		t.Fatalf("proper balanced coloring rejected: %v", err)
	}
}

func TestClassesToColors(t *testing.T) {
	colors := ClassesToColors(5, [][]int{{0, 3}, {1}, {4}})
	want := []int{0, 1, -1, 0, 2}
	for i := range want {
		if colors[i] != want[i] {
			t.Fatalf("colors = %v, want %v", colors, want)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
