package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pops"
)

// workload is one traffic mix: a POPS shape, how requests reach the
// service, and the open-loop rate and goodput latency limit it is measured
// at. The table below is the benchmark's contract; README.md gives the
// reasons for each row.
type workload struct {
	name   string
	d, g   int
	codec  pops.ServiceCodec
	stream bool // POST /route/stream drained to done; otherwise unary POST /route with include_schedule
	proxy  bool // through cluster.New in front of two service nodes
	hot    bool // Zipf draws over a pool led by structured families; the plan cache is warmed at set-up
	rate   float64
	limit  time.Duration
}

// The miss workloads send a request every 25 ms, well over twice the
// ~10 ms one takes, so that a stretch in which the host runs slower does
// not turn into a backlog: at 70/s, three of five perm-miss runs fell
// hundreds of milliseconds behind in such stretches.
var workloads = []workload{
	{name: "perm-miss", d: 16, g: 64, codec: pops.CodecBinary, rate: 40, limit: 100 * time.Millisecond},
	{name: "perm-hot", d: 8, g: 8, codec: pops.CodecJSON, hot: true, rate: 450, limit: 25 * time.Millisecond},
	{name: "stream-fleet", d: 24, g: 64, codec: pops.CodecBinary, stream: true, proxy: true, rate: 40, limit: 100 * time.Millisecond},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shapeClass names the Theorem 1 case the shape exercises: d = g needs no
// padding, d | g and d ∤ g are the two padded cases.
func shapeClass(d, g int) string {
	switch {
	case d == g:
		return "d=g"
	case g%d == 0:
		return "d|g"
	default:
		return "d∤g"
	}
}

const (
	hotPoolSize = 4096 // 4× the service's default per-shard plan cache
	hotWarmSize = 1024 // the most popular ranks, replayed at set-up
	hotZipfS    = 1.1
	probeCount  = 32 // fresh set-up permutations that create shards lazily
	// closedHeadroom sizes the closed-loop input sequence: a host this many
	// times faster than the open-loop rate still does not run out.
	closedHeadroom = 10
)

// inputs is everything a run sends, generated from the seed before any
// timing starts. Requests name permutations by their index in pool.
type inputs struct {
	pool   [][]int
	open   []int // open-loop phase, in send order
	closed []int // closed-loop phase, in send order
	warm   []int // set-up cache warm-up (hot workloads), in send order
	probes []int // set-up shard-creation requests (other workloads)
}

// phaseSplit divides a run of the given length into its open-loop and
// closed-loop phases.
func phaseSplit(seconds int) (open, closed time.Duration) {
	total := time.Duration(seconds) * time.Second
	open = total * 4 / 5
	return open, total - open
}

func genInputs(w workload, seed int64, seconds int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	openDur, closedDur := phaseSplit(seconds)
	nOpen := int(math.Ceil(w.rate * openDur.Seconds()))
	nClosed := int(math.Ceil(closedHeadroom * w.rate * closedDur.Seconds()))
	in := &inputs{}
	if !w.hot {
		n := w.d * w.g
		fresh := func(k int) []int {
			ids := make([]int, k)
			for i := range ids {
				ids[i] = len(in.pool)
				in.pool = append(in.pool, pops.RandomPermutation(n, rng))
			}
			return ids
		}
		in.probes = fresh(probeCount)
		in.open = fresh(nOpen)
		in.closed = fresh(nClosed)
		return in
	}
	in.pool = hotPool(w.d, w.g, rng)
	for r := hotWarmSize - 1; r >= 0; r-- {
		in.warm = append(in.warm, r) // hottest rank last, so it is the most recently used
	}
	z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(in.pool)-1))
	draw := func(k int) []int {
		ids := make([]int, k)
		for i := range ids {
			ids[i] = int(z.Uint64())
		}
		return ids
	}
	in.open = draw(nOpen)
	in.closed = draw(nClosed)
	return in
}

// hotPool builds hotPoolSize distinct permutations on POPS(d, g), d·g a
// power of two: the structured families lead (they take the most popular
// Zipf ranks), seeded random permutations fill the tail.
func hotPool(d, g int, rng *rand.Rand) [][]int {
	n := d * g
	bits := 0
	for 1<<bits < n {
		bits++
	}
	if 1<<bits != n || d != g {
		panic(fmt.Sprintf("hot pool needs d = g with d·g a power of two, got POPS(%d,%d)", d, g))
	}
	var pool [][]int
	seen := map[uint64]bool{pops.PermutationFingerprint(pops.IdentityPermutation(n)): true}
	add := func(pi []int, err error) {
		if err != nil {
			panic(err)
		}
		if fp := pops.PermutationFingerprint(pi); !seen[fp] && len(pool) < hotPoolSize {
			seen[fp] = true
			pool = append(pool, pi)
		}
	}
	bpc := func(b *pops.BPC, err error) ([]int, error) {
		if err != nil {
			return nil, err
		}
		return b.Permutation(), nil
	}
	add(pops.VectorReversal(n), nil)
	add(bpc(pops.BitReversal(bits)))
	for b := 0; b < bits; b++ {
		add(bpc(pops.HypercubeExchange(bits, b)))
	}
	for r := 2; r < n; r *= 2 {
		add(pops.Transpose(r, n/r), nil)
	}
	for dr := 0; dr < d; dr++ {
		for dc := 0; dc < g; dc++ {
			add(pops.MeshShift(d, g, dr, dc))
		}
	}
	for s := 1; s < g; s++ {
		add(pops.GroupRotation(d, g, s))
	}
	for i := 0; i < 256; i++ {
		add(bpc(pops.NewBPC(bits, rng.Perm(bits), uint64(rng.Intn(n)))))
	}
	for len(pool) < hotPoolSize {
		add(pops.RandomPermutation(n, rng), nil)
	}
	return pool
}

// repeatShare is the share of requests in sent whose permutation was
// already sent earlier in the run (after everything in before).
func repeatShare(pool [][]int, before, sent []int) float64 {
	if len(sent) == 0 {
		return 0
	}
	seen := make(map[uint64]bool, len(before)+len(sent))
	for _, id := range before {
		seen[pops.PermutationFingerprint(pool[id])] = true
	}
	repeats := 0
	for _, id := range sent {
		fp := pops.PermutationFingerprint(pool[id])
		if seen[fp] {
			repeats++
		}
		seen[fp] = true
	}
	return float64(repeats) / float64(len(sent))
}
