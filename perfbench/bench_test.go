package main

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pops"
	"pops/internal/popsnet"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{2000, 0.99, 1980}, // enough samples: the nearest rank itself
		{2000, 0.50, 1000},
		{1010, 0.99, 1000}, // rank 1000 leaves exactly ten beyond
		{500, 0.99, 490},   // too few for p99: the highest rank with ten beyond
		{100, 0.99, 90},
		{100, 0.50, 50},
		{11, 0.99, 1},
		{5, 0.50, 1}, // nothing has ten beyond it; the lowest rank
	} {
		if got := percentile(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	r := reply{first: due.Add(7 * time.Millisecond), end: due.Add(9 * time.Millisecond)}
	s := record(due, due.Add(5*time.Millisecond), r)
	if s.latency() != 9*time.Millisecond || s.firstSlot() != 7*time.Millisecond || s.late() != 5*time.Millisecond {
		t.Errorf("latency %v, first slot %v, late %v; want 9ms, 7ms, 5ms", s.latency(), s.firstSlot(), s.late())
	}
	// A unary reply has no separate first slot: it arrives with the plan.
	s = record(due, due, reply{end: due.Add(3 * time.Millisecond)})
	if s.firstSlot() != 3*time.Millisecond {
		t.Errorf("unary first slot %v, want the full 3ms", s.firstSlot())
	}
	if s := record(due, due, reply{end: due, err: wrongf("bad")}); s.ok || !s.wrong {
		t.Errorf("a wrong plan must fail as wrong: %+v", s)
	}
	if s := record(due, due, reply{end: due, err: errors.New("429")}); s.ok || s.wrong {
		t.Errorf("a refused request fails without being wrong: %+v", s)
	}
}

// TestOpenLoopChargesStallsToLaterRequests runs an open loop whose one
// worker is slower than the schedule: every request is sent late, and its
// latency counts the wait since it was due.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const interval, service, n = 2 * time.Millisecond, 10 * time.Millisecond, 5
	var inFlight, maxInFlight atomic.Int32
	send := func(int) reply {
		if v := inFlight.Add(1); v > maxInFlight.Load() {
			maxInFlight.Store(v)
		}
		time.Sleep(service)
		inFlight.Add(-1)
		return reply{end: time.Now()}
	}
	samples := openLoop(time.Now().Add(5*time.Millisecond), n, interval, 1, send)
	if maxInFlight.Load() != 1 {
		t.Fatalf("%d requests in flight, want 1", maxInFlight.Load())
	}
	for i, s := range samples {
		// Request i cannot start before the i requests ahead of it finish.
		minLate := time.Duration(i) * (service - interval)
		if s.late() < minLate {
			t.Errorf("request %d sent %v late, want at least %v", i, s.late(), minLate)
		}
		if s.latency() < s.late()+service {
			t.Errorf("request %d latency %v does not include its %v wait", i, s.latency(), s.late())
		}
		if s.idle != (i == 0) {
			t.Errorf("request %d idle = %v: only the first found its connection free", i, s.idle)
		}
	}
	if late := summarize(samples).late; len(late) != 1 {
		t.Errorf("%d sends counted as the generator's lateness, want the first one only", len(late))
	}
}

func TestClosedLoopStopsAtDeadlineOrInputs(t *testing.T) {
	send := func(int) reply { return reply{end: time.Now()} }
	if got := closedLoop(time.Now().Add(time.Hour), 7, 2, send); len(got) != 7 {
		t.Errorf("ran %d of 7 inputs", len(got))
	}
	if got := closedLoop(time.Now(), 7, 2, send); len(got) != 0 {
		t.Errorf("ran %d requests past the deadline", len(got))
	}
}

// streamedFragments plans pi in-process and returns its slot stream as
// the fragments a /route/stream response carries, plus the whole plan.
func streamedFragments(t *testing.T, d, g int, pi []int) ([]pops.ServiceStreamSlot, *pops.Plan) {
	t.Helper()
	p, err := pops.NewPlanner(d, g)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.ExecuteStream(context.Background(), pops.Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var frags []pops.ServiceStreamSlot
	for {
		f, ok := ps.Next()
		if !ok {
			break
		}
		frags = append(frags, pops.ServiceStreamSlot{Slot: f.Slot, Color: f.Color, Offset: f.Offset, Final: f.Final, Sends: f.Sends, Recvs: f.Recvs})
	}
	plan, err := ps.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return frags, plan
}

func TestReassembleStreamSlots(t *testing.T) {
	for _, shape := range [][2]int{{16, 64}, {24, 64}, {8, 8}, {5, 3}} {
		d, g := shape[0], shape[1]
		nw, err := popsnet.NewNetwork(d, g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(d*100 + g)))
		pi := pops.RandomPermutation(d*g, rng)
		frags, plan := streamedFragments(t, d, g, pi)
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		sched, err := reassemble(nw, plan.SlotCount(), frags)
		if err != nil {
			t.Fatalf("POPS(%d,%d): %v", d, g, err)
		}
		if !reflect.DeepEqual(sched.Slots, plan.Schedule().Slots) {
			t.Errorf("POPS(%d,%d): reassembled schedule differs from the plan", d, g)
		}
		if err := replay(nw, sched, pi); err != nil {
			t.Errorf("POPS(%d,%d): %v", d, g, err)
		}
	}
}

func TestReassembleRejectsGapsAndOverlaps(t *testing.T) {
	const d, g = 16, 64
	nw, _ := popsnet.NewNetwork(d, g)
	pi := pops.RandomPermutation(d*g, rand.New(rand.NewSource(1)))
	frags, plan := streamedFragments(t, d, g, pi)
	// Dropping a fragment that starts its slot leaves a gap at offset 0.
	gap := -1
	for i, f := range frags {
		if f.Offset == 0 && len(f.Sends) < d*g {
			gap = i
			break
		}
	}
	if gap < 0 {
		t.Fatal("no slot is split into several fragments")
	}
	for name, bad := range map[string][]pops.ServiceStreamSlot{
		"gap":      append(append([]pops.ServiceStreamSlot(nil), frags[:gap]...), frags[gap+1:]...),
		"overlap":  append(append([]pops.ServiceStreamSlot(nil), frags...), frags[0]),
		"bad slot": append([]pops.ServiceStreamSlot{{Slot: plan.SlotCount()}}, frags...),
	} {
		if _, err := reassemble(nw, plan.SlotCount(), bad); !isWrong(err) {
			t.Errorf("%s: err = %v, want a wrong plan", name, err)
		}
	}
	// A processor tuned to the wrong coupler is caught by the replay.
	sched, err := reassemble(nw, plan.SlotCount(), frags)
	if err != nil {
		t.Fatal(err)
	}
	r := &sched.Slots[len(sched.Slots)-1].Recvs[0]
	r.SrcGroup = (r.SrcGroup + 1) % g
	if err := replay(nw, sched, pi); !isWrong(err) {
		t.Errorf("replay of a corrupted schedule: err = %v, want a wrong plan", err)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(us int, hit, ok bool) timing {
		start := time.Unix(0, 0)
		return timing{start: start, end: start.Add(time.Duration(us) * time.Microsecond), hit: hit, ok: ok}
	}
	upper := []timing{at(500, false, true), at(40, true, true), at(700, false, false), at(300, false, true)}
	lower := []timing{at(420, false, true), at(35, true, true), at(600, false, true), at(310, false, true)}
	got := selfTimes(upper, lower)
	want := []time.Duration{
		80 * time.Microsecond,  // miss: upper minus lower
		40 * time.Microsecond,  // hit: nothing is subtracted
		-10 * time.Microsecond, // noise may push a thin layer below zero
	} // the failed third input is skipped
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestInputsComeFromTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := genInputs(w, 7, 4), genInputs(w, 7, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if c := genInputs(w, 8, 4); reflect.DeepEqual(a.open, c.open) && reflect.DeepEqual(a.pool, c.pool) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
		for _, pi := range a.pool {
			if err := pops.ValidatePermutation(pi); err != nil || len(pi) != w.d*w.g {
				t.Fatalf("%s: bad input permutation: %v", w.name, err)
			}
		}
		share := repeatShare(a.pool, append(a.warm, a.probes...), append(a.open, a.closed...))
		if w.hot != (share > 0.5) {
			t.Errorf("%s: repeat share %.3f", w.name, share)
		}
	}
}

func TestHotPoolLedByStructuredFamilies(t *testing.T) {
	w, _ := lookupWorkload("perm-hot")
	in := genInputs(w, 1, 4)
	if len(in.pool) != hotPoolSize || len(in.warm) != hotWarmSize {
		t.Fatalf("pool %d, warm set %d", len(in.pool), len(in.warm))
	}
	if !reflect.DeepEqual(in.pool[0], pops.VectorReversal(w.d*w.g)) {
		t.Error("the hottest rank is not the vector reversal")
	}
	if repeatShare(in.pool, nil, seqOf(len(in.pool))) != 0 {
		t.Error("the pool repeats a permutation")
	}
	if in.warm[len(in.warm)-1] != 0 {
		t.Error("the hottest rank is not warmed last")
	}
}

func seqOf(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestShapeClass(t *testing.T) {
	for _, w := range workloads {
		want := map[string]string{"perm-miss": "d|g", "perm-hot": "d=g", "stream-fleet": "d∤g"}[w.name]
		if got := shapeClass(w.d, w.g); got != want {
			t.Errorf("%s: %s, want %s", w.name, got, want)
		}
	}
}

func TestGoodputCountsCorrectAnswersWithinLimit(t *testing.T) {
	start := time.Unix(0, 0)
	var samples []sample
	add := func(lat time.Duration, ok bool) {
		samples = append(samples, sample{due: start, start: start, first: start.Add(lat), end: start.Add(lat), ok: ok})
	}
	for i := 0; i < 30; i++ {
		add(10*time.Millisecond, true)
	}
	add(500*time.Millisecond, true) // exactly at the limit: counts
	add(501*time.Millisecond, true) // too slow
	add(time.Millisecond, false)    // failed or refused
	if got := goodput(samples, 2*time.Second, 500*time.Millisecond); got != 15.5 {
		t.Errorf("goodput = %v/s, want 15.5", got)
	}
}

func TestOnScheduleFlagsAGeneratorThatFellBehind(t *testing.T) {
	due := time.Unix(0, 0)
	var samples []sample
	for i := 0; i < 1000; i++ {
		late := time.Millisecond
		if i >= 985 { // fifteen sends 50 ms late: more than p99 allows
			late = 50 * time.Millisecond
		}
		s := record(due, due.Add(late), reply{end: due.Add(late + time.Millisecond)})
		s.idle = true
		samples = append(samples, s)
	}
	if err := onSchedule(summarize(samples), 10*time.Millisecond); err == nil {
		t.Error("a generator that sent 1.5% of requests 50 ms late passed a 10 ms limit at p99")
	}
	if err := onSchedule(summarize(samples[:990]), 10*time.Millisecond); err != nil {
		t.Errorf("five late sends in 990 must pass at p99: %v", err)
	}
	// Sends that waited for a busy connection are the program's delay.
	for i := range samples {
		samples[i].idle = false
	}
	if err := onSchedule(summarize(samples), 10*time.Millisecond); err != nil {
		t.Errorf("a backlog in the program made the run invalid: %v", err)
	}
}
