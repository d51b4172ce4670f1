package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pops"
	"pops/internal/obs"
	"pops/internal/wire"
)

// newObsServer is newTestServer without the client wrapper: observability
// tests talk raw HTTP to inspect headers and exposition text.
func newObsServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		srv.Close()
	})
	return svc, srv
}

func routeBody(t *testing.T, d, g int, pi []int) *bytes.Reader {
	t.Helper()
	blob, err := json.Marshal(wire.RouteRequest{D: d, G: g, Pi: pi})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(blob)
}

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	_, srv := newObsServer(t, Config{})
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)

	// Client-supplied ID: echoed verbatim in header and body.
	req, _ := http.NewRequest("POST", srv.URL+"/route", routeBody(t, d, g, pi))
	req.Header.Set("X-Request-Id", "client-supplied-17")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rr wire.RouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-supplied-17" {
		t.Errorf("header echo = %q, want the client's id", got)
	}
	if rr.RequestID != "client-supplied-17" {
		t.Errorf("response request_id = %q, want the client's id", rr.RequestID)
	}

	// No ID supplied: the server generates a 16-hex one and echoes it in
	// both places consistently.
	resp, err = srv.Client().Post(srv.URL+"/route", "application/json", routeBody(t, d, g, pi))
	if err != nil {
		t.Fatal(err)
	}
	var rr2 wire.RouteResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
		t.Errorf("generated id %q is not 16 hex chars", id)
	}
	if rr2.RequestID != id {
		t.Errorf("body request_id %q != header %q", rr2.RequestID, id)
	}
}

func TestStreamMetaCarriesRequestID(t *testing.T) {
	_, srv := newObsServer(t, Config{})
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)

	req, _ := http.NewRequest("POST", srv.URL+"/route/stream", routeBody(t, d, g, pi))
	req.Header.Set("X-Request-Id", "stream-trace-1")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "stream-trace-1" {
		t.Errorf("stream header echo = %q, want stream-trace-1", got)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no meta record: %v", sc.Err())
	}
	var rec wire.StreamRecord
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "meta" || rec.Meta == nil {
		t.Fatalf("first record = %+v, want meta", rec)
	}
	if rec.Meta.RequestID != "stream-trace-1" {
		t.Errorf("meta request_id = %q, want stream-trace-1", rec.Meta.RequestID)
	}
}

// TestPhaseBreakdownMatchesLatencyHistogram pins the acceptance contract
// between the tracer and the latency histogram: for a traced request the
// histogram observation IS the span total (one measured interval, not two
// clocks), and the traced phases must account for at least 90% of it — the
// queue wait, cache lookup, factorization, and encode are all instrumented,
// so only scheduler hand-offs may go unattributed. With the cache off every
// attempt plans from scratch, so traced factorization dominates the total,
// keeping the untraced slice well under 10% even on a loaded CI machine;
// timing noise is absorbed by taking the best of a few attempts.
func TestPhaseBreakdownMatchesLatencyHistogram(t *testing.T) {
	svc, srv := newObsServer(t, Config{CacheSize: -1})
	const d, g = 16, 64
	pi := pops.VectorReversal(d * g)

	var lastPhase, lastTotal float64
	for attempt := 0; attempt < 5; attempt++ {
		before := svc.latency.Count()
		beforeSum := svc.latency.Sum()

		id := fmt.Sprintf("phase-pin-%d", attempt)
		req, _ := http.NewRequest("POST", srv.URL+"/route", routeBody(t, d, g, pi))
		req.Header.Set("X-Request-Id", id)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("route = %d", resp.StatusCode)
		}

		if got := svc.latency.Count(); got != before+1 {
			t.Fatalf("latency histogram count %d -> %d, want one new observation", before, got)
		}
		observed := svc.latency.Sum() - beforeSum

		var snap *obs.SpanSnapshot
		for _, s := range svc.tracer.Slow.Snapshot(0) {
			if s.ID == id {
				snap = &s
				break
			}
		}
		if snap == nil {
			t.Fatal("traced request not retained in the slow ring")
		}
		// The histogram observed exactly the span total.
		if diff := observed.Seconds()*1e6 - snap.TotalMicros; diff > 1 || diff < -1 {
			t.Fatalf("histogram observation %.1fµs != span total %.1fµs", observed.Seconds()*1e6, snap.TotalMicros)
		}
		lastPhase, lastTotal = snap.PhaseMicros, snap.TotalMicros
		if lastPhase >= 0.9*lastTotal {
			return // phases account for >= 90% of the measured latency
		}
	}
	t.Fatalf("traced phases cover %.1fµs of %.1fµs total (%.0f%%), want >= 90%%",
		lastPhase, lastTotal, 100*lastPhase/lastTotal)
}

func TestMetricsEndpoint(t *testing.T) {
	_, srv := newObsServer(t, Config{})
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)

	// One planned request and one cache-hit replay, so both the plan-time
	// histogram and the hit counter have data.
	var strategy string
	for i := 0; i < 2; i++ {
		resp, err := srv.Client().Post(srv.URL+"/route", "application/json", routeBody(t, d, g, pi))
		if err != nil {
			t.Fatal(err)
		}
		var rr wire.RouteResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		strategy = rr.Plans[0].Strategy
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, mustReadAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	labels := fmt.Sprintf(`d="%d",g="%d",strategy="%s"`, d, g, strategy)
	for _, want := range []string{
		"# TYPE pops_requests_total counter",
		"pops_requests_total 2",
		"# TYPE pops_request_latency_seconds histogram",
		"pops_request_latency_seconds_count 2",
		`pops_request_latency_seconds_bucket{le="+Inf"} 2`,
		"# TYPE pops_plan_time_seconds histogram",
		fmt.Sprintf("pops_plan_time_seconds_count{%s} 1", labels),
		fmt.Sprintf("pops_plan_cache_hits_total{%s} 1", labels),
		fmt.Sprintf("pops_plan_time_ewma_seconds{%s} ", labels),
		fmt.Sprintf(`pops_shard_requests_total{d="%d",g="%d"} 2`, d, g),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", text)
	}
}

func mustReadAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestDebugSlowEndpoint(t *testing.T) {
	_, srv := newObsServer(t, Config{Name: "slow-node"})
	const d, g = 4, 8
	n := d * g
	for i := 0; i < 3; i++ {
		pi := pops.IdentityPermutation(n)
		for j := range pi {
			pi[j] = (j + i + 1) % n
		}
		resp, err := srv.Client().Post(srv.URL+"/route", "application/json", routeBody(t, d, g, pi))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := srv.Client().Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	var slow wire.SlowResponse
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slow.Server != "slow-node" {
		t.Errorf("server = %q, want slow-node", slow.Server)
	}
	if len(slow.Requests) != 3 {
		t.Fatalf("retained %d requests, want 3", len(slow.Requests))
	}
	for i := 1; i < len(slow.Requests); i++ {
		if slow.Requests[i].TotalMicros > slow.Requests[i-1].TotalMicros {
			t.Error("slow requests not sorted slowest-first")
		}
	}
	r := slow.Requests[0]
	if r.D != d || r.G != g || r.ID == "" || len(r.Phases) == 0 {
		t.Errorf("slow entry missing identity or phases: %+v", r)
	}

	// ?n= bounds the list; a bogus value is a 400.
	resp, err = srv.Client().Get(srv.URL + "/debug/slow?n=1")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(slow.Requests) != 1 {
		t.Errorf("?n=1 returned %d requests", len(slow.Requests))
	}
	resp, err = srv.Client().Get(srv.URL + "/debug/slow?n=-2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("?n=-2 = %d, want 400", resp.StatusCode)
	}
}

// TestStatsCarriesPlanTimes pins the /stats side of the plan-time telemetry:
// per-(d, g, strategy) EWMAs ride the existing stats schema, which is what
// the fleet aggregation and the future Auto cost model consume.
func TestStatsCarriesPlanTimes(t *testing.T) {
	svc, _ := newObsServer(t, Config{})
	ctx := t.Context()
	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	if _, err := svc.Route(ctx, d, g, pi, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Route(ctx, d, g, pi, ""); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if len(st.PlanTimes) == 0 {
		t.Fatal("stats has no plan_times")
	}
	pt := st.PlanTimes[0]
	if pt.D != d || pt.G != g || pt.Strategy == "" {
		t.Errorf("plan-time key = (%d,%d,%q), want (%d,%d,<strategy>)", pt.D, pt.G, pt.Strategy, d, g)
	}
	if pt.Count != 1 || pt.CacheHits != 1 {
		t.Errorf("count=%d hits=%d, want 1 planned + 1 cache hit", pt.Count, pt.CacheHits)
	}
	if pt.EWMAMicros <= 0 {
		t.Error("EWMA not seeded by the planned request")
	}
}
