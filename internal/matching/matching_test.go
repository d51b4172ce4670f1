package matching

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

// hopcroftKarp runs Matcher.HopcroftKarpInto on a fresh arena over b.
func hopcroftKarp(b *graph.Bipartite) []int {
	var m Matcher
	out := make([]int, min(b.NLeft(), b.NRight()))
	return out[:m.HopcroftKarpInto(b.NLeft(), b.NRight(), b.EdgeList(), out)]
}

// perfectMatching runs Matcher.PerfectMatchingRegularInto on a fresh arena
// over b, with n = |L| and k the degree of left node 0; the arena itself
// rejects irregular and 0-regular views.
func perfectMatching(b *graph.Bipartite) ([]int, error) {
	n, k := b.NLeft(), 0
	if n > 0 {
		k = b.DegreeL(0)
	}
	var m Matcher
	out := make([]int, n)
	outN, err := m.PerfectMatchingRegularInto(n, k, b.EdgeList(), out)
	return out[:outN], err
}

func TestKuhnPerfectOnRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct{ n, k int }{{1, 1}, {2, 1}, {4, 3}, {8, 5}, {16, 4}, {7, 7}} {
		b := randomRegular(tc.n, tc.k, rng)
		m := Kuhn(b)
		if err := VerifyMatching(b, m, true); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
	}
}

func TestHopcroftKarpPerfectOnRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct{ n, k int }{{1, 1}, {2, 2}, {4, 3}, {8, 5}, {32, 6}, {9, 3}} {
		b := randomRegular(tc.n, tc.k, rng)
		m := hopcroftKarp(b)
		if err := VerifyMatching(b, m, true); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
	}
}

func TestMaximumMatchingNonPerfect(t *testing.T) {
	// A path: L0-R0, L1-R0, L1-R1, L2-R1. Max matching = 2.
	b := graph.New(3, 2)
	b.AddEdge(0, 0)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)
	b.AddEdge(2, 1)
	if got := len(Kuhn(b)); got != 2 {
		t.Fatalf("Kuhn size = %d, want 2", got)
	}
	if got := len(hopcroftKarp(b)); got != 2 {
		t.Fatalf("HopcroftKarp size = %d, want 2", got)
	}
}

func TestMatchingEmptyGraph(t *testing.T) {
	b := graph.New(4, 4)
	if got := len(Kuhn(b)); got != 0 {
		t.Fatalf("Kuhn on empty graph = %d edges", got)
	}
	if got := len(hopcroftKarp(b)); got != 0 {
		t.Fatalf("HopcroftKarp on empty graph = %d edges", got)
	}
}

func TestKuhnEqualsHopcroftKarpSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(20) + 1
		m := rng.Intn(4 * n)
		b := graph.New(n, n)
		for e := 0; e < m; e++ {
			b.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		k, h := Kuhn(b), hopcroftKarp(b)
		if len(k) != len(h) {
			t.Fatalf("trial %d: Kuhn=%d HopcroftKarp=%d", trial, len(k), len(h))
		}
		if err := VerifyMatching(b, k, false); err != nil {
			t.Fatalf("Kuhn invalid: %v", err)
		}
		if err := VerifyMatching(b, h, false); err != nil {
			t.Fatalf("HopcroftKarp invalid: %v", err)
		}
	}
}

func TestPerfectMatchingRegularBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct{ n, k int }{
		{1, 1}, {1, 3}, {2, 2}, {3, 3}, {4, 2}, {8, 5}, {16, 7}, {32, 3}, {9, 6},
	} {
		b := randomRegular(tc.n, tc.k, rng)
		m, err := perfectMatching(b)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if err := VerifyMatching(b, m, true); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
	}
}

func TestPerfectMatchingRegularWithParallelEdges(t *testing.T) {
	// All d packets from group h to group (h+1) mod g: a d-regular multigraph
	// made of d parallel copies of one permutation — the adversarial demand
	// graph of the routing problem.
	for _, d := range []int{2, 3, 8} {
		g := 4
		b := graph.New(g, g)
		for c := 0; c < d; c++ {
			for h := 0; h < g; h++ {
				b.AddEdge(h, (h+1)%g)
			}
		}
		m, err := perfectMatching(b)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if err := VerifyMatching(b, m, true); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
	}
}

func TestPerfectMatchingRegularRejectsIrregular(t *testing.T) {
	b := graph.New(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	if _, err := perfectMatching(b); err == nil {
		t.Fatal("irregular graph accepted")
	}
}

func TestPerfectMatchingRegularRejectsUnequalSides(t *testing.T) {
	b := graph.New(2, 3)
	if _, err := perfectMatching(b); err == nil {
		t.Fatal("unequal sides accepted")
	}
}

func TestPerfectMatchingRegularRejectsZeroRegular(t *testing.T) {
	b := graph.New(3, 3)
	if _, err := perfectMatching(b); err == nil {
		t.Fatal("0-regular graph accepted")
	}
}

func TestPerfectMatchingRegularDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := randomRegular(12, 5, rng)
	m1, err := perfectMatching(b)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := perfectMatching(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1) != len(m2) {
		t.Fatalf("non-deterministic sizes %d vs %d", len(m1), len(m2))
	}
	set := make(map[int]bool)
	for _, id := range m1 {
		set[id] = true
	}
	for _, id := range m2 {
		if !set[id] {
			t.Fatalf("runs differ: edge %d only in second run", id)
		}
	}
}

func TestPerfectMatchingRegularProperty(t *testing.T) {
	f := func(nSeed, kSeed uint8, seed int64) bool {
		n := int(nSeed)%24 + 1
		k := int(kSeed)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		b := randomRegular(n, k, rng)
		m, err := perfectMatching(b)
		if err != nil {
			return false
		}
		return VerifyMatching(b, m, true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMatchingCatchesViolations(t *testing.T) {
	b := graph.New(2, 2)
	e0 := b.AddEdge(0, 0)
	e1 := b.AddEdge(0, 1)
	e2 := b.AddEdge(1, 0)

	if err := VerifyMatching(b, []int{e0, e1}, false); err == nil {
		t.Fatal("shared left endpoint accepted")
	}
	if err := VerifyMatching(b, []int{e0, e2}, false); err == nil {
		t.Fatal("shared right endpoint accepted")
	}
	if err := VerifyMatching(b, []int{99}, false); err == nil {
		t.Fatal("out-of-range edge ID accepted")
	}
	if err := VerifyMatching(b, []int{e0}, true); err == nil {
		t.Fatal("non-perfect matching accepted as perfect")
	}
	if err := VerifyMatching(b, []int{e0}, false); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
}

func BenchmarkHopcroftKarpRegular(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomRegular(256, 16, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := hopcroftKarp(g); len(m) != 256 {
			b.Fatalf("matching size %d", len(m))
		}
	}
}

func BenchmarkPerfectMatchingRegularAlon(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := randomRegular(256, 16, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfectMatching(g); err != nil {
			b.Fatal(err)
		}
	}
}
