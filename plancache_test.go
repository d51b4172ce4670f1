package pops

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestPlanCacheHitsRepeatedPermutation(t *testing.T) {
	p, err := NewPlanner(4, 8, WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(32)
	first, err := p.Route(pi)
	if err != nil {
		t.Fatal(err)
	}
	second, err := p.Route(pi)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("repeated permutation was replanned instead of served from the cache")
	}
	// A copy of the permutation hits too: the key is content, not identity.
	third, err := p.Route(append([]int(nil), pi...))
	if err != nil {
		t.Fatal(err)
	}
	if third != first {
		t.Fatal("copied permutation missed the cache")
	}
	stats := p.CacheStats()
	if stats.Hits != 2 || stats.Misses != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 entry", stats)
	}
	if _, err := second.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheHitIsAllocFree pins the point of consulting the cache before
// checking out a worker planner: a hit costs a fingerprint walk and a map
// lookup, no planner (or arena) allocation.
func TestPlanCacheHitIsAllocFree(t *testing.T) {
	p, err := NewPlanner(4, 8, WithPlanCache(4))
	if err != nil {
		t.Fatal(err)
	}
	pi := VectorReversal(32)
	if _, err := p.Route(pi); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Route(pi); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("cache hit allocates %.0f objects/op, want 0", allocs)
	}
}

func TestPlanCacheEvictsLRU(t *testing.T) {
	p, err := NewPlanner(2, 4, WithPlanCache(2))
	if err != nil {
		t.Fatal(err)
	}
	a := IdentityPermutation(8)
	b := VectorReversal(8)
	c, err := MeshShift(2, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range [][]int{a, b} {
		if _, err := p.Route(pi); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU entry, then insert c to evict b.
	if _, err := p.Route(a); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Route(c); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.CachedPlan(a); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := p.CachedPlan(b); ok {
		t.Fatal("LRU entry survived past capacity")
	}
	stats := p.CacheStats()
	if stats.Evictions != 1 || stats.Entries != 2 || stats.Capacity != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries, capacity 2", stats)
	}
}

func TestPlanCacheConcurrentRouteIsRaceFreeAndCorrect(t *testing.T) {
	const d, g = 4, 4
	p, err := NewPlanner(d, g, WithPlanCache(8), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	pis := make([][]int, 4)
	for i := range pis {
		pis[i] = RandomPermutation(d*g, rng)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				pi := pis[(seed+iter)%len(pis)]
				plan, err := p.Route(pi)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(plan.Pi, pi) {
					t.Error("cache returned a plan for the wrong permutation")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := p.CacheStats()
	if stats.Hits+stats.Misses != 200 {
		t.Fatalf("lookups = %d, want 200", stats.Hits+stats.Misses)
	}
	if stats.Hits == 0 {
		t.Fatal("no cache hits across 200 routes of 4 permutations")
	}
}

func TestExecuteCachedReportsAttribution(t *testing.T) {
	p, err := NewPlanner(4, 4, WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pis := [][]int{VectorReversal(16), IdentityPermutation(16)}
	plans := make([]*Plan, len(pis))
	for i, pi := range pis {
		plan, cached, err := p.ExecuteCached(ctx, Permutation(pi))
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("cold permutation %d reported a cache hit", i)
		}
		plans[i] = plan
	}
	for i, pi := range pis {
		plan, cached, err := p.ExecuteCached(ctx, Permutation(pi))
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			t.Fatalf("warm permutation %d missed the cache", i)
		}
		if plan != plans[i] {
			t.Fatalf("warm permutation %d returned a different plan pointer", i)
		}
	}
}

func TestCacheStatsZeroWithoutOption(t *testing.T) {
	p, err := NewPlanner(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Route(IdentityPermutation(4)); err != nil {
		t.Fatal(err)
	}
	if got := p.CacheStats(); got != (CacheStats{}) {
		t.Fatalf("CacheStats without WithPlanCache = %+v, want zero", got)
	}
	if _, ok := p.CachedPlan(IdentityPermutation(4)); ok {
		t.Fatal("CachedPlan reported a hit without a cache")
	}
}
