package core

import (
	"context"
	"math/rand"
	"testing"

	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/perms"
	"pops/internal/popsnet"
)

// TestPlansMatchPaddedReference checks the planner's balanced coloring
// against the paper's padded construction (edgecolor.PaddedBalancedInto) on
// d | g shapes, where cutting the factors balances the classes, d ∤ g
// shapes, where the Kempe equalizing step runs, d > g and the direct d = 1
// network. For random permutations on every algorithm:
//   - a plan built on the planner's colors and one built on the reference
//     colors both take 2·⌈max(d,g)/g⌉ slots and deliver every packet;
//   - PlanCtx and a collected StartPlanCtx stream take OptimalSlots(d, g)
//     slots — the same count except at d = 1, whose direct plan needs one
//     slot — and deliver every packet.
func TestPlansMatchPaddedReference(t *testing.T) {
	shapes := []struct{ d, g int }{
		{16, 64}, {8, 64}, {24, 64}, {3, 8}, {5, 7}, {8, 3}, {1, 8},
	}
	ctx := context.Background()
	for _, algo := range allAlgorithms {
		for _, s := range shapes {
			pl, err := NewPlanner(s.d, s.g, Options{Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			nw := pl.Network()
			colorCount := max(s.d, s.g)
			theorem := 2 * ceilDiv(colorCount, s.g)
			fact := edgecolor.NewFactorizer()
			for seed := int64(0); seed < 3; seed++ {
				pi := perms.Random(nw.N(), rand.New(rand.NewSource(seed)))
				demand := graph.New(s.g, s.g)
				for p := 0; p < nw.N(); p++ {
					demand.AddEdge(nw.Group(p), nw.Group(pi[p]))
				}
				for _, c := range []struct {
					name    string
					balance func([]int) error
				}{
					{"balanced", func(colors []int) error { return fact.BalancedInto(colors, demand, colorCount, algo) }},
					{"reference", func(colors []int) error {
						return edgecolor.PaddedBalancedInto(colors, demand, colorCount, algo)
					}},
				} {
					colors := make([]int, nw.N())
					if err := c.balance(colors); err != nil {
						t.Fatalf("%v POPS(%d,%d) seed %d: %s: %v", algo, s.d, s.g, seed, c.name, err)
					}
					plan, err := planFromColors(nw, pi, colors)
					if err != nil {
						t.Fatalf("%v POPS(%d,%d) seed %d: %s plan: %v", algo, s.d, s.g, seed, c.name, err)
					}
					assertDelivers(t, plan.Schedule(), pi, theorem, "%v POPS(%d,%d) seed %d: %s plan", algo, s.d, s.g, seed, c.name)
				}

				plan, err := pl.PlanCtx(ctx, pi)
				if err != nil {
					t.Fatalf("%v POPS(%d,%d) seed %d: PlanCtx: %v", algo, s.d, s.g, seed, err)
				}
				assertDelivers(t, plan.Schedule(), pi, OptimalSlots(s.d, s.g), "%v POPS(%d,%d) seed %d: PlanCtx", algo, s.d, s.g, seed)
				ps, err := pl.StartPlanCtx(ctx, pi)
				if err != nil {
					t.Fatalf("%v POPS(%d,%d) seed %d: StartPlanCtx: %v", algo, s.d, s.g, seed, err)
				}
				streamed, err := ps.Collect()
				if err != nil {
					t.Fatalf("%v POPS(%d,%d) seed %d: Collect: %v", algo, s.d, s.g, seed, err)
				}
				assertDelivers(t, streamed.Schedule(), pi, OptimalSlots(s.d, s.g), "%v POPS(%d,%d) seed %d: StartPlanCtx", algo, s.d, s.g, seed)
			}
		}
	}
}

// assertDelivers requires sched to take exactly slots slots and to deliver
// every packet of pi when replayed on the simulator.
func assertDelivers(t *testing.T, sched *popsnet.Schedule, pi []int, slots int, format string, args ...any) {
	t.Helper()
	if len(sched.Slots) != slots {
		t.Fatalf(format+": %d slots, want %d", append(args, len(sched.Slots), slots)...)
	}
	if _, err := popsnet.VerifyPermutationRouted(sched, pi); err != nil {
		t.Fatalf(format+": %v", append(args, err)...)
	}
}
