package edgecolor

import (
	"math/rand"
	"testing"
)

// balancedColorCounts returns every valid color count C of a balanced
// instance with n nodes per side and degree k: k ≤ C and C | n·k.
func balancedColorCounts(n, k int) []int {
	var cs []int
	for c := k; c <= n*k; c++ {
		if (n*k)%c == 0 {
			cs = append(cs, c)
		}
	}
	return cs
}

// TestNewCutCountsClasses pins the cut arithmetic over every valid
// instance up to n = 12, k = 8: the factors' classes tile [0, C) in order,
// each factor's runs tile its n edges, and the class sizes are s, s + r or
// r exactly as the BalancedInto doc says.
func TestNewCutCountsClasses(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for k := 1; k <= 8; k++ {
			for _, C := range balancedColorCounts(n, k) {
				s := n * k / C
				c := newCut(n, s, k)
				factor := make([]int, n)
				next := 0
				for j := 0; j < k; j++ {
					base, count := c.classes(j)
					if base != next {
						t.Fatalf("n=%d k=%d C=%d: factor %d starts at class %d, want %d", n, k, C, j, base, next)
					}
					next += count
					edges := 0
					for r := 0; r < count; r++ {
						size := len(c.run(factor, r, count))
						if size != s && size != s+c.rem && size != c.rem {
							t.Fatalf("n=%d k=%d C=%d: factor %d run %d has %d edges", n, k, C, j, r, size)
						}
						edges += size
					}
					if edges != n {
						t.Fatalf("n=%d k=%d C=%d: factor %d runs cover %d of %d edges", n, k, C, j, edges, n)
					}
				}
				if next != C {
					t.Fatalf("n=%d k=%d C=%d: cut makes %d classes", n, k, C, next)
				}
				if c.exact() != (n%s == 0) {
					t.Fatalf("n=%d k=%d C=%d: exact() = %v", n, k, C, c.exact())
				}
			}
		}
	}
}

// FuzzBalancedMatchesReference cross-checks BalancedInto against the padded
// reference construction: for a fuzzer-chosen k-regular multigraph with n
// nodes per side and a valid color count C (k ≤ C, C | n·k), both must be
// proper colorings with C classes of exactly n·k/C edges, on every
// algorithm, and StartBalanced drained to exhaustion must equal the batch
// call. The seeds cover s | n, s ∤ n (the Kempe equalizing step) and C > n.
func FuzzBalancedMatchesReference(f *testing.F) {
	f.Add(uint8(7), uint8(1), uint8(2), int64(1))  // n=8 k=2 C=8: s=2 | n
	f.Add(uint8(6), uint8(4), uint8(0), int64(2))  // n=7 k=5 C=5: plain
	f.Add(uint8(6), uint8(4), uint8(1), int64(3))  // n=7 k=5 C=7: s=5 ∤ n
	f.Add(uint8(7), uint8(2), uint8(3), int64(4))  // n=8 k=3 C=8: s=3 ∤ n
	f.Add(uint8(9), uint8(5), uint8(3), int64(5))  // n=10 k=6 C=15: s=4 ∤ n, C > n
	f.Add(uint8(3), uint8(2), uint8(3), int64(6))  // n=4 k=3 C=12: s=1, C > n
	f.Add(uint8(11), uint8(7), uint8(1), int64(7)) // n=12 k=8 C=12: s=8 ∤ n
	f.Add(uint8(0), uint8(0), uint8(0), int64(8))  // n=1 k=1 C=1
	arena := NewFactorizer()
	f.Fuzz(func(t *testing.T, nSeed, kSeed, cSeed uint8, seed int64) {
		n := int(nSeed)%12 + 1
		k := int(kSeed)%8 + 1
		cs := balancedColorCounts(n, k)
		C := cs[int(cSeed)%len(cs)]
		s := n * k / C
		b := randomRegular(n, k, rand.New(rand.NewSource(seed)))
		for _, algo := range allAlgorithms {
			want := make([]int, b.NumEdges())
			if err := PaddedBalancedInto(want, b, C, algo); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: reference: %v", algo, n, k, C, err)
			}
			if err := Verify(b, want, C, s); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: reference: %v", algo, n, k, C, err)
			}
			got := make([]int, b.NumEdges())
			if err := arena.BalancedInto(got, b, C, algo); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, n, k, C, err)
			}
			if err := Verify(b, got, C, s); err != nil {
				t.Fatalf("%v n=%d k=%d C=%d: %v", algo, n, k, C, err)
			}
			streamed := make([]int, b.NumEdges())
			drainStream(t, arena.StartBalanced(b, C, algo), streamed, C)
			for id := range got {
				if streamed[id] != got[id] {
					t.Fatalf("%v n=%d k=%d C=%d: stream diverges at edge %d: %d vs %d",
						algo, n, k, C, id, streamed[id], got[id])
				}
			}
		}
	})
}

// TestStreamBalancedFirstClassCostsOneFactor pins what streaming buys on
// both d < g planner shapes, with and without the equalizing step: the
// first class is yielded after a single matching round, not after the
// whole factorization.
func TestStreamBalancedFirstClassCostsOneFactor(t *testing.T) {
	for _, sh := range balancedAllocShapes(t) {
		if sh.algo != RepeatedMatching {
			continue
		}
		b := randomRegular(sh.n, sh.k, rand.New(rand.NewSource(sh.seed)))
		f := NewFactorizer()
		colors := make([]int, b.NumEdges())
		st := f.StartBalanced(b, sh.colors, sh.algo)
		if _, ok, err := st.Next(colors); err != nil || !ok {
			t.Fatalf("%s: first class: ok=%v err=%v", sh.name, ok, err)
		}
		if f.repRound != 1 {
			t.Fatalf("%s: first class took %d matching rounds, want 1", sh.name, f.repRound)
		}
		if got := len(st.Factor()); got != sh.n*sh.k/sh.colors {
			t.Fatalf("%s: first class has %d edges, want %d", sh.name, got, sh.n*sh.k/sh.colors)
		}
	}
}
