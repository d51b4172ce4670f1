package edgecolor

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pops/internal/graph"
)

// goldenPath pins the per-edge color assignment of every backend on a fixed
// family of graphs. The file was recorded with the original recursive
// implementation (pre-Factorizer); the arena engine must reproduce it
// byte-identically, so any diff means the deterministic coloring behaviour
// changed — review deliberately and regenerate with REGEN_GOLDEN=1.
const goldenPath = "testdata/factorize_golden.txt"

func goldenBundle(g, d int) *graph.Bipartite {
	b := graph.New(g, g)
	for c := 0; c < d; c++ {
		for h := 0; h < g; h++ {
			b.AddEdge(h, (h+1)%g)
		}
	}
	return b
}

// goldenCases enumerates (label, graph, k) factorization instances and
// (label, graph, C) balanced instances, all deterministic.
func goldenLines() []string {
	var lines []string
	factorize := []struct{ n, k, seed int }{
		{1, 1, 11}, {2, 2, 12}, {3, 2, 13}, {4, 4, 14}, {5, 3, 15},
		{8, 8, 16}, {16, 5, 17}, {9, 7, 18}, {12, 1, 19}, {6, 6, 20},
	}
	for _, algo := range allAlgorithms {
		for _, tc := range factorize {
			b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
			classes, err := NewFactorizer().Factorize(b, algo)
			if err != nil {
				panic(fmt.Sprintf("golden %v n=%d k=%d: %v", algo, tc.n, tc.k, err))
			}
			colors := ClassesToColors(b.NumEdges(), classes)
			lines = append(lines, fmt.Sprintf("factorize algo=%v n=%d k=%d seed=%d colors=%s",
				algo, tc.n, tc.k, tc.seed, joinInts(colors)))
		}
		for _, d := range []int{1, 2, 5, 8} {
			b := goldenBundle(6, d)
			classes, err := NewFactorizer().Factorize(b, algo)
			if err != nil {
				panic(fmt.Sprintf("golden bundle %v d=%d: %v", algo, d, err))
			}
			colors := ClassesToColors(b.NumEdges(), classes)
			lines = append(lines, fmt.Sprintf("factorize-bundle algo=%v g=6 d=%d colors=%s",
				algo, d, joinInts(colors)))
		}
		balanced := []struct{ n, k, colors, seed int }{
			{4, 2, 4, 31}, {6, 3, 6, 32}, {8, 8, 8, 33}, {6, 2, 3, 34},
			{4, 3, 12, 35}, {12, 4, 16, 36}, {9, 3, 9, 37},
		}
		for _, tc := range balanced {
			b := randomRegular(tc.n, tc.k, rand.New(rand.NewSource(int64(tc.seed))))
			colors, err := balancedColors(b, tc.colors, algo)
			if err != nil {
				panic(fmt.Sprintf("golden balanced %v n=%d k=%d C=%d: %v", algo, tc.n, tc.k, tc.colors, err))
			}
			lines = append(lines, fmt.Sprintf("balanced algo=%v n=%d k=%d C=%d seed=%d colors=%s",
				algo, tc.n, tc.k, tc.colors, tc.seed, joinInts(colors)))
		}
	}
	return lines
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

func TestFactorizeGoldenColors(t *testing.T) {
	got := strings.Join(goldenLines(), "\n") + "\n"
	if os.Getenv("REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d lines)", goldenPath, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (REGEN_GOLDEN=1 to regenerate): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden colors changed at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden colors changed: got %d lines, want %d", len(gl), len(wl))
	}
}
