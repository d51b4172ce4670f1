// Command perfbench is the served-path benchmark of the POPS planner. It runs
// one workload against the real serving stack inside its own process —
// service.New behind a loopback net/http listener, or cluster.New in front
// of two of them — and drives it through pops.ServiceClient with at most two
// connections and two requests in flight.
//
// With -trace 0 it measures what a caller sees: an open-loop phase at the
// workload's fixed rate, then a closed-loop phase, and prints the end-to-end
// metrics. With -trace 1 it replays the workload's inputs through every
// layer's own entry point (the ladder) and prints the per-layer metrics.
// Every answer is checked; a wrong plan makes the run exit non-zero.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload perm-miss --seed 1 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md defines every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"pops"
	"pops/internal/popsnet"
)

const (
	requestTimeout = 30 * time.Second
	setupRuns      = 7  // setup_s is the median of this many set-ups
	verifySamples  = 16 // schedules kept per phase for a simulator replay
	// setupProbes fresh requests open the connections and create the
	// shards; through the proxy, eight land on both nodes but for a 1/128
	// chance, after which set-up sends more until they do.
	setupProbes = 8
	// traceOpenShare is the share of a traced run spent in its open-loop
	// phase, which measures generator lateness and the live /stats counters.
	traceOpenShare = 0.25
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: perm-miss, perm-hot or stream-fleet")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 55, "measured seconds")
	trace := fs.Int("trace", 0, "1 replays the layer ladder and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {perm-miss|perm-hot|stream-fleet}, --seconds ≥ 2, --trace 0|1\n")
		return 2
	}
	in := genInputs(w, *seed, *seconds)
	var res *result
	var err error
	if *trace == 1 {
		res, err = traced(w, in, *seed, *seconds)
	} else {
		res, err = endToEnd(w, in, *seed, *seconds)
	}
	if err == nil {
		err = res.print(stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "perfbench: some answers failed the oracle")
		return 1
	}
	return 0
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct           bool
	attempted, failed int
	notes             []string
	metrics           []metric // reported in the JSON line
	extra             []metric // printed in the table only
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) print(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, m := range append(r.metrics, r.extra...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no value", m.name)
		}
		fmt.Fprintf(w, "%-24s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setUp starts the workload's stack and brings it to the state the
// measurement starts from: connections open, a planner shard on every node
// (created lazily by the first request of the shape), and, for hot
// workloads, the plan cache holding the warm set.
func setUp(w workload, in *inputs, nw popsnet.Network) (_ *stack, _ *client, err error) {
	st, err := startStack(w.proxy)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(st.front.url, w.codec, false)
	defer func() {
		if err != nil {
			c.close()
			st.close()
		}
	}()
	send := func(id int) error {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		return call(ctx, c.ServiceClient, w, nw, in.pool[id], false).err
	}
	ids := in.warm
	if len(ids) == 0 {
		ids = in.probes[:setupProbes]
	}
	if err := replayAll(ids, send); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	for _, id := range in.probes[min(setupProbes, len(in.probes)):] {
		if st.shardsReady() {
			break
		}
		if err := send(id); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	if !st.shardsReady() {
		return nil, nil, errors.New("set-up: a node has no planner shard")
	}
	return st, c, nil
}

// keeper holds the schedules of a seeded sample of requests for a replay
// on the simulator once their phase has ended.
type keeper struct {
	want map[int]bool
	mu   sync.Mutex
	kept map[int]*popsnet.Schedule
}

func newKeeper(rng *rand.Rand, span, count int) *keeper {
	k := &keeper{want: map[int]bool{}, kept: map[int]*popsnet.Schedule{}}
	for _, i := range rng.Perm(span)[:min(count, span)] {
		k.want[i] = true
	}
	return k
}

func (k *keeper) put(i int, s *popsnet.Schedule) {
	k.mu.Lock()
	k.kept[i] = s
	k.mu.Unlock()
}

// verify replays every kept schedule and returns how many failed.
func (k *keeper) verify(nw popsnet.Network, pool [][]int, seq []int) int {
	bad := 0
	for i, s := range k.kept {
		if err := replay(nw, s, pool[seq[i]]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, err)
			bad++
		}
	}
	return bad
}

// sender sends seq's requests through c, keeping the sampled schedules.
func sender(c *client, w workload, nw popsnet.Network, pool [][]int, seq []int, k *keeper) sendFunc {
	return func(i int) reply {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		defer cancel()
		r := call(ctx, c.ServiceClient, w, nw, pool[seq[i]], k.want[i])
		if r.err == nil && r.sched != nil {
			k.put(i, r.sched)
		}
		return r
	}
}

func shapeNote(w workload, in *inputs, sent []int) string {
	before := append(append([]int(nil), in.warm...), in.probes...)
	return fmt.Sprintf("inputs: POPS(%d,%d) n=%d %s, pool %d, repeat share %.4f over %d requests",
		w.d, w.g, w.d*w.g, shapeClass(w.d, w.g), len(in.pool), repeatShare(in.pool, before, sent), len(sent))
}

func endToEnd(w workload, in *inputs, seed int64, seconds int) (*result, error) {
	nw, err := popsnet.NewNetwork(w.d, w.g)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var st *stack
	var c *client
	for k := 0; k < setupRuns; k++ {
		if st != nil {
			c.close()
			st.close()
		}
		t0 := time.Now()
		if st, c, err = setUp(w, in, nw); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		c.close()
		st.close()
	}()

	openDur, closedDur := phaseSplit(seconds)
	interval := time.Duration(float64(time.Second) / w.rate)
	rng := rand.New(rand.NewSource(seed))
	openKeep := newKeeper(rng, len(in.open), verifySamples)
	// Each phase starts right after a garbage collection, so the collector's
	// cycles fall at the same points of a phase from run to run.
	runtime.GC()
	cpu0 := cpuTime()
	open := openLoop(time.Now(), len(in.open), interval, maxConns, sender(c, w, nw, in.pool, in.open, openKeep))
	openCPU := cpuTime() - cpu0
	openBad := openKeep.verify(nw, in.pool, in.open)

	expected := int(math.Ceil(2 * w.rate * closedDur.Seconds()))
	closedKeep := newKeeper(rng, min(expected, len(in.closed)), verifySamples)
	runtime.GC()
	closedStart := time.Now()
	closed := closedLoop(closedStart.Add(closedDur), len(in.closed), maxConns, sender(c, w, nw, in.pool, in.closed, closedKeep))
	closedElapsed := time.Since(closedStart)
	closedBad := closedKeep.verify(nw, in.pool, in.closed)

	os1, cs := summarize(open), summarize(closed)
	if err := onSchedule(os1, w.limit); err != nil {
		return nil, err
	}
	if len(os1.latency) == 0 {
		return nil, errors.New("no open-loop request succeeded")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &result{
		correct:   os1.wrong+cs.wrong+openBad+closedBad == 0,
		attempted: os1.attempted + cs.attempted,
		failed:    os1.failed + cs.failed + openBad + closedBad,
	}
	sent := append(append([]int(nil), in.open...), in.closed[:len(closed)]...)
	res.notes = append(res.notes,
		shapeNote(w, in, sent),
		fmt.Sprintf("open loop: %d requests at %.0f/s over %v; closed loop: %d requests, %d in flight, over %v; latency limit %v",
			os1.attempted, w.rate, openDur, cs.attempted, maxConns, closedElapsed.Round(time.Millisecond), w.limit),
		fmt.Sprintf("set-ups: %v s", setups),
	)
	res.add("latency_p50_ms", percentile(os1.latency, 0.50), "ms")
	res.add("goodput_rps", goodput(closed, closedElapsed, w.limit), "req/s")
	res.add("cpu_ms_per_req", openCPU.Seconds()*1000/float64(len(os1.latency)), "ms")
	res.add("setup_s", median(setups), "s")
	res.add("rss_peak_mb", rss, "MB")
	// The tail percentiles stay out of the JSON: on a shared host they fall
	// among the requests that the host's own stalls delay, and over ten
	// runs the p99's interquartile range reached half its median.
	// README.md gives the figures.
	res.extra = append(res.extra,
		metric{"latency_p95_ms", percentile(os1.latency, 0.95), "ms"},
		metric{"latency_p99_ms", percentile(os1.latency, 0.99), "ms"},
		metric{"first_slot_p50_ms", percentile(os1.firstSlot, 0.50), "ms"},
		metric{"first_slot_p99_ms", percentile(os1.firstSlot, 0.99), "ms"},
		metric{"failed_frac", float64(res.failed) / float64(res.attempted), "ratio"},
		metric{"loadgen.late_p99_ms", percentile(os1.late, 0.99), "ms"})
	return res, nil
}

// liveStats are the /stats counters of the served stack over one phase.
type liveStats struct{ before, after *pops.ServiceStats }

func (s liveStats) batchMean() float64 {
	var batches, batched float64
	for _, sh := range s.after.Shards {
		batches += float64(sh.Batches)
		batched += float64(sh.BatchedRequests)
	}
	for _, sh := range s.before.Shards {
		batches -= float64(sh.Batches)
		batched -= float64(sh.BatchedRequests)
	}
	if batches == 0 {
		return 0
	}
	return batched / batches
}

func (s liveStats) cacheHitRatio() float64 {
	hits := float64(s.after.CacheHits) - float64(s.before.CacheHits)
	misses := float64(s.after.CacheMisses) - float64(s.before.CacheMisses)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

func (s liveStats) planUsMean() float64 {
	var count, sum float64
	for _, pt := range s.after.PlanTimes {
		count += float64(pt.Count)
		sum += pt.SumMicros
	}
	for _, pt := range s.before.PlanTimes {
		count -= float64(pt.Count)
		sum -= pt.SumMicros
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

func (s liveStats) sheds() float64 {
	return float64(s.after.Sheds+s.after.DeadlineSheds) - float64(s.before.Sheds+s.before.DeadlineSheds)
}

// servedPhase runs the traced run's open-loop phase on the served stack,
// keeping k's sample of schedules, and returns its samples and the stack's
// /stats counters over the phase.
func servedPhase(w workload, in *inputs, nw popsnet.Network, seq []int, k *keeper) ([]sample, liveStats, error) {
	st, c, err := setUp(w, in, nw)
	if err != nil {
		return nil, liveStats{}, err
	}
	defer st.close()
	defer c.close()
	ctx := context.Background()
	var ls liveStats
	if ls.before, err = c.Stats(ctx); err != nil {
		return nil, ls, err
	}
	interval := time.Duration(float64(time.Second) / w.rate)
	samples := openLoop(time.Now(), len(seq), interval, maxConns, sender(c, w, nw, in.pool, seq, k))
	if ls.after, err = c.Stats(ctx); err != nil {
		return nil, ls, err
	}
	return samples, ls, nil
}

func traced(w workload, in *inputs, seed int64, seconds int) (*result, error) {
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	nw, err := popsnet.NewNetwork(w.d, w.g)
	if err != nil {
		return nil, err
	}
	nOpen := min(len(in.open), int(math.Ceil(w.rate*traceOpenShare*float64(seconds))))
	keep := newKeeper(rand.New(rand.NewSource(seed)), nOpen, verifySamples)
	samples, live, err := servedPhase(w, in, nw, in.open[:nOpen], keep)
	if err != nil {
		return nil, err
	}
	served := summarize(samples)
	servedBad := keep.verify(nw, in.pool, in.open)
	if err := onSchedule(served, w.limit); err != nil {
		return nil, err
	}

	probe := in.probes
	if w.hot {
		probe = in.warm
	}
	l, err := newLadder(w, in.pool[probe[0]])
	if err != nil {
		return nil, err
	}
	defer l.close()
	if err := l.warm(in.pool, in.warm, in.probes); err != nil {
		return nil, err
	}
	inputs, failed, wrong, firstErr := l.climb(in.pool, in.open, deadline)
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", firstErr)
	}
	if inputs == 0 {
		return nil, errors.New("the ladder ran out of time before its first input")
	}

	res := &result{
		attempted: served.attempted + inputs*len(l.rungs),
		failed:    served.failed + servedBad + failed,
		correct:   served.wrong+servedBad+wrong == 0,
	}
	res.notes = append(res.notes,
		shapeNote(w, in, in.open[:inputs]),
		fmt.Sprintf("ladder: %d inputs through %d rungs, one call at a time; served phase: %d requests at %.0f/s",
			inputs, len(l.rungs), served.attempted, w.rate))

	r := l.rung
	selfUs := func(upper, lower string) float64 { return median(usOf(selfTimes(r(upper).times, r(lower).times))) }
	firstOf := func(route, first string) float64 {
		if w.stream {
			return r(route).medianUs(true)
		}
		return r(first).medianUs(true)
	}
	plain, balanced := r(rungPlain).medianUs(false), r(rungBalanced).medianUs(false)
	res.add("edgecolor.plain_us", plain, "us")
	res.add("edgecolor.balanced_us", balanced, "us")
	res.add("edgecolor.padding_x", balanced/plain, "x")
	res.add("core.plan_us", r(rungCore).medianUs(false), "us")
	res.add("core.self_us", selfUs(rungCore, rungBalanced), "us")
	res.add("core.first_slot_us", r(rungCoreFirst).medianUs(true), "us")
	res.add("pops.execute_us", r(rungPops).medianUs(false), "us")
	res.add("pops.self_us", selfUs(rungPops, rungCore), "us")
	res.add("pops.first_slot_us", r(rungPopsFirst).medianUs(true), "us")
	res.add("pops.cache_hit_ratio", r(rungPops).hitRatio(), "ratio")
	res.add("service.route_us", r(rungService).medianUs(false), "us")
	res.add("service.first_slot_us", firstOf(rungService, rungServiceFirst), "us")
	res.add("service.self_us", selfUs(rungService, rungPops), "us")
	res.add("service.batch_mean", live.batchMean(), "req/batch")
	res.add("service.cache_hit_ratio", live.cacheHitRatio(), "ratio")
	res.add("service.plan_us_mean", live.planUsMean(), "us")
	res.add("service.sheds", live.sheds(), "count")
	res.add("wire.route_us", r(rungWire).medianUs(false), "us")
	res.add("wire.first_slot_us", firstOf(rungWire, rungWireFirst), "us")
	res.add("wire.self_us", selfUs(rungWire, rungService), "us")
	res.add("wire.resp_bytes", float64(l.wireClient.counted.Load())/float64(inputs), "B")
	res.add("wire.bytes_per_slot", bytesPerSlot(l.wireStream.svc.Stats()), "B")
	res.add("cluster.route_us", r(rungCluster).medianUs(false), "us")
	res.add("cluster.first_slot_us", firstOf(rungCluster, rungClusterFirst), "us")
	res.add("cluster.self_us", selfUs(rungCluster, rungWire), "us")
	fleet, err := l.fleet.Stats(context.Background())
	if err != nil {
		return nil, err
	}
	failovers, skew := fleetSpread(fleet)
	res.add("cluster.failovers", failovers, "count")
	res.add("cluster.backend_skew", skew, "x")
	res.add("loadgen.late_p99_ms", percentile(served.late, 0.99), "ms")
	res.add("trace.overhead_pct", r(rungCluster).overheadPct(), "%")

	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := l.writeSpans(path); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", len(l.spans), path), ladderTable(l))
	return res, nil
}

func bytesPerSlot(st pops.ServiceStats) float64 {
	var bytes uint64
	for _, c := range st.WireCodecs {
		bytes += c.StreamedBytes
	}
	if st.StreamedSlots == 0 {
		return 0
	}
	return float64(bytes) / float64(st.StreamedSlots)
}

// fleetSpread sums the proxy's failovers and returns the ratio of its
// busiest backend's requests to its idlest one's.
func fleetSpread(st *pops.ServiceStats) (failovers, skew float64) {
	lo, hi := math.Inf(1), 0.0
	for _, b := range st.Backends {
		failovers += float64(b.Failovers)
		n := float64(b.Requests + b.Streams)
		lo, hi = math.Min(lo, n), math.Max(hi, n)
	}
	if lo == 0 || math.IsInf(lo, 1) {
		return failovers, hi
	}
	return failovers, hi / lo
}

// ladderTable renders each rung's median, time to first slot and cache
// hit ratio, bottom rung first.
func ladderTable(l *ladder) string {
	var b strings.Builder
	b.WriteString("rung                       median_us  first_us  hits")
	for _, r := range l.rungs {
		fmt.Fprintf(&b, "\n%-24s %11.1f %9.1f  %.3f", r.name, r.medianUs(false), r.medianUs(true), r.hitRatio())
	}
	return b.String()
}
