// Package fairdist implements list systems and fair distributions — the
// exact formalism of Section 3.1 and Theorem 1 of Mei & Rizzi.
//
// A list system (S, T, L) has n1 = |S| source nodes, n2 = |T| target nodes,
// and assigns to each source s a list L_s of Δ1 not-necessarily-distinct
// elements of S. It is proper when n2 divides n1·Δ1 and every element of S
// appears exactly Δ1 times across all lists. Theorem 1: every proper list
// system admits a fair distribution f: S×N_Δ1 → T with
//
//	(1) |{f(s,i) : i}| = Δ1 for every s            (per-source injectivity)
//	(2) |{(s,i) : f(s,i) = t}| = Δ2 for every t    (exact balance, Δ2 = n1Δ1/n2)
//	(3) L(s1,i1) = L(s2,i2) ∧ (s1,i1) ≠ (s2,i2) ⇒ f(s1,i1) ≠ f(s2,i2)
//	                                               (same list value ⇒ distinct targets)
//
// The construction reduces to the balanced bipartite edge coloring of
// package edgecolor: build the multigraph with an edge (s, L(s,i)) per list
// entry, color it with n2 colors and exact class size Δ2; the color of entry
// (s, i) is f(s, i).
package fairdist

import (
	"fmt"

	"pops/internal/edgecolor"
	"pops/internal/graph"
)

// ListSystem is the triple (S, T, L) of the paper with S = {0..NSources-1},
// T = {0..NTargets-1}. Lists[s][i] ∈ S is the i-th element of L_s; all lists
// must have equal length Δ1.
type ListSystem struct {
	NSources int
	NTargets int
	Lists    [][]int
}

// Delta1 returns the common list length Δ1, or 0 for an empty system.
func (ls *ListSystem) Delta1() int {
	if len(ls.Lists) == 0 {
		return 0
	}
	return len(ls.Lists[0])
}

// Delta2 returns Δ2 = n1·Δ1 / n2, the exact per-target load of a fair
// distribution. It panics if NTargets is zero.
func (ls *ListSystem) Delta2() int {
	return ls.NSources * ls.Delta1() / ls.NTargets
}

// Check validates structural well-formedness: source count matches the list
// count, every list has the same length, and all list values lie in S.
func (ls *ListSystem) Check() error {
	if ls.NSources < 0 || ls.NTargets < 0 {
		return fmt.Errorf("fairdist: negative sizes (%d, %d)", ls.NSources, ls.NTargets)
	}
	if len(ls.Lists) != ls.NSources {
		return fmt.Errorf("fairdist: %d lists for %d sources", len(ls.Lists), ls.NSources)
	}
	d1 := ls.Delta1()
	for s, list := range ls.Lists {
		if len(list) != d1 {
			return fmt.Errorf("fairdist: list %d has length %d, want %d", s, len(list), d1)
		}
		for i, v := range list {
			if v < 0 || v >= ls.NSources {
				return fmt.Errorf("fairdist: L(%d,%d) = %d outside S", s, i, v)
			}
		}
	}
	return nil
}

// IsProper reports whether the list system is proper: n2 divides n1·Δ1 and
// every element of S appears exactly Δ1 times across all lists. A structural
// error from Check is returned as improper with that error.
func (ls *ListSystem) IsProper() (bool, error) {
	if err := ls.Check(); err != nil {
		return false, err
	}
	d1 := ls.Delta1()
	if ls.NTargets == 0 {
		return ls.NSources == 0 || d1 == 0, nil
	}
	if (ls.NSources*d1)%ls.NTargets != 0 {
		return false, nil
	}
	occur := make([]int, ls.NSources)
	for _, list := range ls.Lists {
		for _, v := range list {
			occur[v]++
		}
	}
	for _, c := range occur {
		if c != d1 {
			return false, nil
		}
	}
	return true, nil
}

// Multiplicity returns l(s, s'): how many times s' occurs in list L_s.
func (ls *ListSystem) Multiplicity(s, sp int) int {
	n := 0
	for _, v := range ls.Lists[s] {
		if v == sp {
			n++
		}
	}
	return n
}

// Graph builds the bipartite multigraph G = (S, S'; E) from the proof of
// Theorem 1: one edge (s, L(s,i)) per list entry. Edge IDs are assigned in
// (s, i) row-major order, so entry (s, i) is edge s·Δ1 + i.
func (ls *ListSystem) Graph() *graph.Bipartite {
	b := graph.New(ls.NSources, ls.NSources)
	for s, list := range ls.Lists {
		for _, v := range list {
			b.AddEdge(s, v)
		}
	}
	return b
}

// FairDistribution computes a fair distribution for a proper list system
// using the given factorization algorithm. The result F satisfies
// F[s][i] = f(s, i) ∈ T and the invariants (1)–(3); Verify re-checks them.
//
// It returns an error if the system is not proper, or if Δ1 > n2 (in which
// case condition (1) is unsatisfiable and no fair distribution exists).
func (ls *ListSystem) FairDistribution(algo edgecolor.Algorithm) ([][]int, error) {
	proper, err := ls.IsProper()
	if err != nil {
		return nil, err
	}
	if !proper {
		return nil, fmt.Errorf("fairdist: list system is not proper")
	}
	d1 := ls.Delta1()
	if d1 > ls.NTargets {
		return nil, fmt.Errorf("fairdist: Δ1=%d exceeds |T|=%d; condition (1) unsatisfiable", d1, ls.NTargets)
	}
	if ls.NSources == 0 || d1 == 0 {
		return make([][]int, ls.NSources), nil
	}

	g := ls.Graph()
	var fz edgecolor.Factorizer
	colors := make([]int, g.NumEdges())
	if err := fz.BalancedInto(colors, g, ls.NTargets, algo); err != nil {
		return nil, fmt.Errorf("fairdist: balanced coloring: %w", err)
	}
	f := make([][]int, ls.NSources)
	for s := range f {
		row := make([]int, d1)
		for i := range row {
			row[i] = colors[s*d1+i]
		}
		f[s] = row
	}
	return f, nil
}

// Verify checks that f is a fair distribution for the list system: correct
// shape, values in T, and invariants (1)–(3). It returns a descriptive error
// for the first violation found.
func (ls *ListSystem) Verify(f [][]int) error {
	if err := ls.Check(); err != nil {
		return err
	}
	d1 := ls.Delta1()
	if len(f) != ls.NSources {
		return fmt.Errorf("fairdist: f has %d rows, want %d", len(f), ls.NSources)
	}
	load := make([]int, ls.NTargets)
	for s, row := range f {
		if len(row) != d1 {
			return fmt.Errorf("fairdist: f[%d] has %d entries, want %d", s, len(row), d1)
		}
		seen := make(map[int]bool, d1)
		for i, t := range row {
			if t < 0 || t >= ls.NTargets {
				return fmt.Errorf("fairdist: f(%d,%d) = %d outside T", s, i, t)
			}
			if seen[t] {
				return fmt.Errorf("fairdist: condition (1) violated: f(%d,·) repeats target %d", s, t)
			}
			seen[t] = true
			load[t]++
		}
	}
	d2 := ls.Delta2()
	for t, c := range load {
		if c != d2 {
			return fmt.Errorf("fairdist: condition (2) violated: target %d has load %d, want %d", t, c, d2)
		}
	}
	// Condition (3): entries with the same list value must get distinct
	// targets.
	type key struct{ value, target int }
	prev := make(map[key][2]int)
	for s, row := range f {
		for i, t := range row {
			k := key{ls.Lists[s][i], t}
			if p, dup := prev[k]; dup {
				return fmt.Errorf("fairdist: condition (3) violated: entries (%d,%d) and (%d,%d) share value %d and target %d",
					p[0], p[1], s, i, k.value, t)
			}
			prev[k] = [2]int{s, i}
		}
	}
	return nil
}
