package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pops"
	"pops/internal/core"
	"pops/internal/edgecolor"
	"pops/internal/graph"
	"pops/internal/popsnet"
	"pops/internal/service"
)

// The ladder times each layer from outside, through that layer's own entry
// point, on the workload's input sequence: one client, one call at a time.
// Every rung owns fresh instances (planners, services, proxies), so each
// one sees the same sequence of cache states the served workload does.
const (
	rungPlain        = "edgecolor.plain"
	rungBalanced     = "edgecolor.balanced"
	rungCore         = "core.plan"
	rungCoreFirst    = "core.first_slot"
	rungPops         = "pops.execute"
	rungPopsFirst    = "pops.first_slot"
	rungService      = "service.route"
	rungServiceFirst = "service.first_slot"
	rungWire         = "wire.route"
	rungWireFirst    = "wire.first_slot"
	rungCluster      = "cluster.route"
	rungClusterFirst = "cluster.first_slot"
)

// timing is one rung call. end is where the rung's timed interval stops:
// the whole plan for route rungs, the first slot for first-slot rungs.
// first is zero when the call delivers no separate first slot.
type timing struct {
	start, first, end time.Time
	hit               bool // answered from a plan cache
	ok                bool
}

func (t timing) dur() time.Duration { return t.end.Sub(t.start) }

func (t timing) firstDur() time.Duration {
	if t.first.IsZero() {
		return t.dur()
	}
	return t.first.Sub(t.start)
}

// span is one traced rung call; Req, the input's index in the sequence,
// is the request ID that ties the spans of one input together.
type span struct {
	Rung    string `json:"rung"`
	Req     int    `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type rung struct {
	name   string
	cached bool // has a plan cache, so warm-up applies
	// run times one call on pi; untimed work (building inputs, draining a
	// stream past its first slot, replaying the plan) happens around it.
	run   func(ctx context.Context, pi []int) (timing, error)
	times []timing
	// spanCost is the time spent recording this rung's spans, which falls
	// outside its timed calls.
	spanCost time.Duration
}

type ladder struct {
	rungs   []*rung
	closers []func()
	spans   []span
	stacks  []*stack
	// Sources of the counters read after the replay.
	wireStream *node   // node whose streams show bytes per slot
	wireClient *client // counts the wire route rung's response bytes
	fleet      *client // the cluster route rung's proxy
}

func (l *ladder) close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
}

func (l *ladder) add(name string, cached bool, run func(ctx context.Context, pi []int) (timing, error)) {
	l.rungs = append(l.rungs, &rung{name: name, cached: cached, run: run})
}

// cacheCapacity is the per-shard plan cache size of a default service,
// read from the service itself so the pops rung mirrors it.
func cacheCapacity(nw popsnet.Network, pi []int) (int, error) {
	svc := service.New(service.Config{})
	defer svc.Close()
	if _, err := svc.Route(context.Background(), nw.D, nw.G, pi, ""); err != nil {
		return 0, err
	}
	st := svc.Stats()
	if len(st.Shards) != 1 {
		return 0, fmt.Errorf("service reports %d shards after one request", len(st.Shards))
	}
	return st.Shards[0].Cache.Capacity, nil
}

func newLadder(w workload, probe []int) (_ *ladder, err error) {
	nw, err := popsnet.NewNetwork(w.d, w.g)
	if err != nil {
		return nil, err
	}
	l := &ladder{}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	n := nw.N()
	colorCount := max(w.d, w.g)
	algo := pops.NewOptions().Algorithm

	// edgecolor: the group demand multigraph of pi, colored plainly (the
	// d-factorization floor) and balanced as Theorem 1 asks. Each coloring
	// is timed on its second run over the same graph: the first run after
	// the HTTP rungs pays for cold caches (about 7µs on POPS(8,8), where
	// the whole coloring takes 10µs), which would skew the ratio of the two.
	demand := graph.New(w.g, w.g)
	colors := make([]int, n)
	build := func(pi []int) {
		demand.Reset()
		for p := 0; p < n; p++ {
			demand.AddEdge(nw.Group(p), nw.Group(pi[p]))
		}
	}
	factor := func(into func() error, classes, size int) func(context.Context, []int) (timing, error) {
		return func(_ context.Context, pi []int) (timing, error) {
			build(pi)
			if err := into(); err != nil {
				return timing{}, err
			}
			t := timing{start: time.Now()}
			err := into()
			t.end = time.Now()
			if err == nil {
				if err = edgecolor.Verify(demand, colors, classes, size); err != nil {
					err = wrongf("coloring: %v", err)
				}
			}
			return t, err
		}
	}
	plain, balanced := edgecolor.NewFactorizer(), edgecolor.NewFactorizer()
	l.add(rungPlain, false, factor(func() error { return plain.FactorizeInto(colors, demand, algo) }, w.d, w.g))
	l.add(rungBalanced, false, factor(func() error {
		return balanced.BalancedInto(colors, demand, colorCount, algo)
	}, colorCount, n/colorCount))

	// core: the Theorem 2 planner alone, with the options pops defaults to.
	corePlan, err := core.NewPlanner(w.d, w.g, pops.NewOptions())
	if err != nil {
		return nil, err
	}
	l.add(rungCore, false, func(ctx context.Context, pi []int) (timing, error) {
		t := timing{start: time.Now()}
		plan, err := corePlan.PlanCtx(ctx, pi)
		t.end = time.Now()
		if err != nil {
			return t, err
		}
		return t, replay(nw, plan.Schedule(), pi)
	})
	coreFirst, err := core.NewPlanner(w.d, w.g, pops.NewOptions())
	if err != nil {
		return nil, err
	}
	l.add(rungCoreFirst, false, func(ctx context.Context, pi []int) (timing, error) {
		t := timing{start: time.Now()}
		ps, err := coreFirst.StartPlanCtx(ctx, pi)
		if err != nil {
			return t, err
		}
		ps.Next()
		t.end = time.Now()
		t.first = t.end
		plan, err := ps.Collect()
		if err != nil {
			return t, err
		}
		return t, replay(nw, plan.Schedule(), pi)
	})

	// pops: the public planner with the service's default plan cache.
	capacity, err := cacheCapacity(nw, probe)
	if err != nil {
		return nil, err
	}
	popsPlan, err := pops.NewPlanner(w.d, w.g, pops.WithPlanCache(capacity))
	if err != nil {
		return nil, err
	}
	l.add(rungPops, true, func(ctx context.Context, pi []int) (timing, error) {
		hits := popsPlan.CacheStats().Hits
		t := timing{start: time.Now()}
		plan, err := popsPlan.Execute(ctx, pops.Permutation(pi))
		t.end = time.Now()
		if err != nil {
			return t, err
		}
		t.hit = popsPlan.CacheStats().Hits > hits
		return t, replay(nw, plan.Schedule(), pi)
	})
	popsFirst, err := pops.NewPlanner(w.d, w.g, pops.WithPlanCache(capacity))
	if err != nil {
		return nil, err
	}
	l.add(rungPopsFirst, true, func(ctx context.Context, pi []int) (timing, error) {
		t := timing{start: time.Now()}
		ps, err := popsFirst.ExecuteStream(ctx, pops.Permutation(pi))
		if err != nil {
			return t, err
		}
		defer ps.Close()
		ps.Next()
		t.end = time.Now()
		t.first, t.hit = t.end, ps.Cached()
		plan, err := ps.Collect()
		if err != nil {
			return t, err
		}
		return t, replay(nw, plan.Schedule(), pi)
	})

	// service: the in-process entry points the HTTP handler calls.
	newService := func() *service.Service {
		svc := service.New(service.Config{})
		l.closers = append(l.closers, svc.Close)
		return svc
	}
	svc := newService()
	if w.stream {
		l.add(rungService, true, func(ctx context.Context, pi []int) (timing, error) {
			return serviceStream(ctx, svc, nw, pi, false)
		})
	} else {
		l.add(rungService, true, func(ctx context.Context, pi []int) (timing, error) {
			t := timing{start: time.Now()}
			res, err := svc.Route(ctx, w.d, w.g, pi, "")
			t.end = time.Now()
			if err == nil {
				err = res.Err
			}
			if err != nil {
				return t, err
			}
			t.hit = res.Cached
			return t, replay(nw, res.Plan.Schedule(), pi)
		})
		svcFirst := newService()
		l.add(rungServiceFirst, true, func(ctx context.Context, pi []int) (timing, error) {
			return serviceStream(ctx, svcFirst, nw, pi, true)
		})
	}

	// wire: a ServiceClient over loopback to one node, in the workload's
	// codec; cluster: the same through one proxy hop in front of two nodes.
	streamed := w
	streamed.stream = true
	overHTTP := func(c *client, w workload, firstOnly bool) func(context.Context, []int) (timing, error) {
		return func(ctx context.Context, pi []int) (timing, error) {
			t := timing{start: time.Now()}
			r := call(ctx, c.ServiceClient, w, nw, pi, true)
			t.end, t.hit = r.end, r.cached
			if w.stream {
				t.first = r.first
			}
			if firstOnly {
				t.end = r.first
			}
			if r.err != nil {
				return t, r.err
			}
			return t, replay(nw, r.sched, pi)
		}
	}
	wireNode, err := l.node()
	if err != nil {
		return nil, err
	}
	l.wireClient = l.client(wireNode.http.url, w.codec, true)
	l.add(rungWire, true, overHTTP(l.wireClient, w, false))
	l.wireStream = wireNode
	if !w.stream {
		firstNode, err := l.node()
		if err != nil {
			return nil, err
		}
		l.wireStream = firstNode
		l.add(rungWireFirst, true, overHTTP(l.client(firstNode.http.url, w.codec, false), streamed, true))
	}
	fleet, err := l.stack()
	if err != nil {
		return nil, err
	}
	l.fleet = l.client(fleet.front.url, w.codec, false)
	l.add(rungCluster, true, overHTTP(l.fleet, w, false))
	if !w.stream {
		firstFleet, err := l.stack()
		if err != nil {
			return nil, err
		}
		l.add(rungClusterFirst, true, overHTTP(l.client(firstFleet.front.url, w.codec, false), streamed, true))
	}
	return l, nil
}

func (l *ladder) node() (*node, error) {
	n, err := startNode()
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, n.close)
	return n, nil
}

func (l *ladder) stack() (*stack, error) {
	st, err := startStack(true)
	if err != nil {
		return nil, err
	}
	l.closers = append(l.closers, st.close)
	l.stacks = append(l.stacks, st)
	return st, nil
}

func (l *ladder) client(url string, codec pops.ServiceCodec, countBytes bool) *client {
	c := newClient(url, codec, countBytes)
	l.closers = append(l.closers, c.close)
	return c
}

// serviceStream drains one in-process slot stream, reassembles and replays
// it. firstOnly ends the timed interval at the first slot.
func serviceStream(ctx context.Context, svc *service.Service, nw popsnet.Network, pi []int, firstOnly bool) (timing, error) {
	t := timing{start: time.Now()}
	st, err := svc.ExecuteStream(ctx, nw.D, nw.G, pops.Permutation(pi))
	if err != nil {
		return t, err
	}
	defer st.Close()
	meta := st.Meta()
	t.hit = meta.Cached
	if err := checkMeta(nw.D, nw.G, pi, meta); err != nil {
		return t, err
	}
	var frags []pops.ServiceStreamSlot
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		if len(frags) == 0 {
			t.first = time.Now()
		}
		frags = append(frags, f)
	}
	t.end = time.Now()
	if firstOnly {
		t.end = t.first
	}
	if err := st.Err(); err != nil {
		return t, err
	}
	sched, err := reassemble(nw, meta.Slots, frags)
	if err != nil {
		return t, err
	}
	return t, replay(nw, sched, pi)
}

// warm brings every rung to the state the served workload starts in. Hot
// workloads replay the warm set into every cached rung, maxConns calls at a
// time per rung and all rungs at once; the others send probes through
// every rung until each proxy has a shard on both nodes.
func (l *ladder) warm(pool [][]int, warmSet, probes []int) error {
	if len(warmSet) > 0 {
		var wg sync.WaitGroup
		errs := make([]error, len(l.rungs))
		for k, r := range l.rungs {
			if !r.cached {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[k] = replayAll(warmSet, func(id int) error {
					_, err := r.run(context.Background(), pool[id])
					return err
				})
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				return fmt.Errorf("warming %s: %w", l.rungs[k].name, err)
			}
		}
		probes = warmSet[:2]
	}
	for k, id := range probes {
		for _, r := range l.rungs {
			if _, err := r.run(context.Background(), pool[id]); err != nil {
				return fmt.Errorf("probing %s: %w", r.name, err)
			}
		}
		if k >= 1 && l.shardsReady() {
			return nil
		}
	}
	if !l.shardsReady() {
		return fmt.Errorf("no shard on some proxied node after %d probes", len(probes))
	}
	return nil
}

func (l *ladder) shardsReady() bool {
	for _, st := range l.stacks {
		if !st.shardsReady() {
			return false
		}
	}
	return true
}

// replayAll calls fn on ids in order with at most maxConns calls in flight.
func replayAll(ids []int, fn func(id int) error) error {
	var mu sync.Mutex
	var first error
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(ids) || first != nil {
					mu.Unlock()
					return
				}
				id := ids[next]
				next++
				mu.Unlock()
				if err := fn(id); err != nil {
					mu.Lock()
					first = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// minClimb is how many inputs the ladder replays even past its deadline.
const minClimb = 20

// climb replays seq through every rung, input by input and bottom rung
// first, until the sequence ends or, after minClimb inputs, the deadline
// passes. It returns how many inputs ran, how many rung calls failed and
// how many of those returned a wrong plan, and the first failure.
func (l *ladder) climb(pool [][]int, seq []int, deadline time.Time) (inputs, failed, wrong int, firstErr error) {
	t0 := time.Now()
	l.wireClient.counted.Store(0)
	for i, id := range seq {
		if i >= minClimb && time.Now().After(deadline) {
			break
		}
		inputs++
		for _, r := range l.rungs {
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			t, err := r.run(ctx, pool[id])
			cancel()
			t.ok = err == nil
			if err != nil {
				failed++
				if isWrong(err) {
					wrong++
				}
				if firstErr == nil {
					firstErr = fmt.Errorf("%s on input %d: %w", r.name, i, err)
				}
			}
			r.times = append(r.times, t)
			a := time.Now()
			l.spans = append(l.spans, span{Rung: r.name, Req: i, StartNs: int64(t.start.Sub(t0)), EndNs: int64(t.end.Sub(t0))})
			r.spanCost += time.Since(a)
		}
	}
	return inputs, failed, wrong, firstErr
}

func (l *ladder) rung(name string) *rung {
	for _, r := range l.rungs {
		if r.name == name {
			return r
		}
	}
	return nil
}

// selfTimes is a layer's own time per input: its rung minus the rung below
// on the same input — or its whole rung when the layer answered from its
// cache, since the layer below then did no work. Inputs on which either
// rung failed are skipped.
func selfTimes(upper, lower []timing) []time.Duration {
	var out []time.Duration
	for i := range upper {
		if !upper[i].ok || i >= len(lower) || !lower[i].ok {
			continue
		}
		if upper[i].hit {
			out = append(out, upper[i].dur())
		} else {
			out = append(out, upper[i].dur()-lower[i].dur())
		}
	}
	return out
}

func usOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// medianUs is the median duration of a rung's successful calls, in µs;
// first selects the time to first slot.
func (r *rung) medianUs(first bool) float64 {
	var ds []time.Duration
	for _, t := range r.times {
		if !t.ok {
			continue
		}
		if first {
			ds = append(ds, t.firstDur())
		} else {
			ds = append(ds, t.dur())
		}
	}
	return median(usOf(ds))
}

// overheadPct is the time spent recording the rung's spans as a share of
// the time its successful calls took, in percent: what the rung costs with
// spans on against spans off.
func (r *rung) overheadPct() float64 {
	var calls time.Duration
	for _, t := range r.times {
		if t.ok {
			calls += t.dur()
		}
	}
	return 100 * r.spanCost.Seconds() / calls.Seconds()
}

func (r *rung) hitRatio() float64 {
	if len(r.times) == 0 {
		return 0
	}
	hits := 0
	for _, t := range r.times {
		if t.hit {
			hits++
		}
	}
	return float64(hits) / float64(len(r.times))
}

// writeSpans writes the recorded spans as JSON lines.
func (l *ladder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
