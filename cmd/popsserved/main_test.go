package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"pops"
	"pops/internal/popsnet"
	"pops/internal/wire"
	"pops/internal/wirebin"
)

// TestServeSmoke is the end-to-end smoke `make serve-smoke` runs: start
// popsserved on an ephemeral port, route one permutation through the Go
// client, route it again, and assert the second answer came from the
// fingerprint plan cache (both on the plan's cached flag and the /stats hit
// counter), then shut down gracefully.
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, testWriter{t}, ready)
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	client := pops.NewServiceClient("http://"+addr.String(), nil)
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	first, err := client.Route(ctx, d, g, pi)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first route reported a cache hit")
	}
	if first.Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("slots = %d, want %d", first.Slots, pops.OptimalSlots(d, g))
	}
	second, err := client.Route(ctx, d, g, pi)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second route of the same permutation was not a cache hit")
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits < 1 {
		t.Fatalf("stats.cache_hits = %d, want ≥ 1", stats.CacheHits)
	}
	if stats.ShardCount != 1 || stats.Requests != 2 {
		t.Fatalf("stats = %+v, want 1 shard, 2 requests", stats)
	}

	// Graceful shutdown must complete promptly.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain within 15s")
	}
}

// startServer boots popsserved on an ephemeral port and returns its
// address, the cancel that triggers graceful shutdown (the SIGINT path),
// and the channel run's error arrives on.
func startServer(t *testing.T, args ...string) (net.Addr, context.CancelFunc, chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), testWriter{t}, ready)
	}()
	select {
	case addr := <-ready:
		return addr, cancel, done
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	return nil, nil, nil
}

// TestServeSmokeStream is the streaming smoke `make serve-smoke` also runs:
// it speaks raw HTTP/1.1 over TCP to POST /route/stream so it can parse the
// chunked transfer encoding itself, asserting that the slot records really
// arrive as multiple separate chunks (one per server-side flush) — the
// pipelining property, not just the payload — and that the NDJSON records
// reassemble into meta + slots + done.
func TestServeSmokeStream(t *testing.T) {
	addr, cancel, done := startServer(t)

	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	body, err := json.Marshal(wire.RouteRequest{D: d, G: g, Pi: pi})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(conn, "POST /route/stream HTTP/1.1\r\nHost: popsserved\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)

	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("status line %q", strings.TrimSpace(status))
	}
	chunked := false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if strings.EqualFold(line, "Transfer-Encoding: chunked") {
			chunked = true
		}
	}
	if !chunked {
		t.Fatal("response is not chunked")
	}

	// Parse the chunked framing by hand, counting the chunks.
	var payload []byte
	chunks := 0
	for {
		sizeLine, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		size, err := strconv.ParseUint(strings.TrimSpace(sizeLine), 16, 32)
		if err != nil {
			t.Fatalf("chunk size line %q: %v", strings.TrimSpace(sizeLine), err)
		}
		if size == 0 {
			break
		}
		chunks++
		buf := make([]byte, size+2) // chunk data + trailing CRLF
		if _, err := io.ReadFull(br, buf); err != nil {
			t.Fatal(err)
		}
		payload = append(payload, buf[:size]...)
	}
	if chunks < 2 {
		t.Fatalf("stream arrived in %d chunk(s); want >= 2 (one per flushed record)", chunks)
	}

	// The concatenated NDJSON must be meta, slot records, done.
	lines := strings.Split(strings.TrimSpace(string(payload)), "\n")
	var meta wire.StreamRecord
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil || meta.Type != "meta" || meta.Meta == nil {
		t.Fatalf("first record %q (err %v)", lines[0], err)
	}
	if meta.Meta.Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("meta.slots = %d, want %d", meta.Meta.Slots, pops.OptimalSlots(d, g))
	}
	slotRecords := 0
	for _, line := range lines[1 : len(lines)-1] {
		var rec wire.StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Type != "slot" || rec.Slot == nil {
			t.Fatalf("slot record %q (err %v)", line, err)
		}
		slotRecords++
	}
	if slotRecords != meta.Meta.Fragments {
		t.Fatalf("%d slot records, meta promised %d", slotRecords, meta.Meta.Fragments)
	}
	var doneRec wire.StreamRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doneRec); err != nil || doneRec.Type != "done" {
		t.Fatalf("last record %q (err %v)", lines[len(lines)-1], err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain within 15s")
	}
}

// TestServeSmokeStreamBinary repeats the raw-TCP streaming smoke with the
// binary framing negotiated via Accept: the response must carry the
// application/x-pops-bin Content-Type, still arrive as >= 2 separate HTTP
// chunks (the pipelining property is codec-independent), and the
// concatenated chunk payload must decode as meta + slot frames + done.
func TestServeSmokeStreamBinary(t *testing.T) {
	addr, cancel, done := startServer(t)

	const d, g = 4, 8
	pi := pops.VectorReversal(d * g)
	body, err := json.Marshal(wire.RouteRequest{D: d, G: g, Pi: pi})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(conn, "POST /route/stream HTTP/1.1\r\nHost: popsserved\r\nContent-Type: application/json\r\nAccept: %s\r\nContent-Length: %d\r\n\r\n%s", wirebin.ContentType, len(body), body)

	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("status line %q", strings.TrimSpace(status))
	}
	chunked, binaryCT := false, false
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		line = strings.TrimSpace(line)
		if line == "" {
			break
		}
		if strings.EqualFold(line, "Transfer-Encoding: chunked") {
			chunked = true
		}
		if strings.EqualFold(line, "Content-Type: "+wirebin.ContentType) {
			binaryCT = true
		}
	}
	if !chunked {
		t.Fatal("response is not chunked")
	}
	if !binaryCT {
		t.Fatalf("response did not negotiate Content-Type %s", wirebin.ContentType)
	}

	// Parse the chunked framing by hand, counting the chunks.
	var payload []byte
	chunks := 0
	for {
		sizeLine, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		size, err := strconv.ParseUint(strings.TrimSpace(sizeLine), 16, 32)
		if err != nil {
			t.Fatalf("chunk size line %q: %v", strings.TrimSpace(sizeLine), err)
		}
		if size == 0 {
			break
		}
		chunks++
		buf := make([]byte, size+2) // chunk data + trailing CRLF
		if _, err := io.ReadFull(br, buf); err != nil {
			t.Fatal(err)
		}
		payload = append(payload, buf[:size]...)
	}
	if chunks < 2 {
		t.Fatalf("stream arrived in %d chunk(s); want >= 2 (one per flushed frame)", chunks)
	}

	// The concatenated frames must be meta, slot frames, done.
	dec := wirebin.NewDecoder(bytes.NewReader(payload))
	var meta wire.StreamMeta
	slotFrames, sawDone := 0, false
	first := true
	for {
		typ, framePayload, err := dec.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if first && typ != wirebin.FrameMeta {
			t.Fatalf("first frame type %d, want meta", typ)
		}
		first = false
		switch typ {
		case wirebin.FrameMeta:
			if err := wirebin.DecodeMeta(framePayload, &meta); err != nil {
				t.Fatal(err)
			}
		case wirebin.FrameSlot:
			slotFrames++
		case wirebin.FrameDone:
			sawDone = true
		default:
			t.Fatalf("unexpected frame type %d", typ)
		}
	}
	if meta.Slots != pops.OptimalSlots(d, g) {
		t.Fatalf("meta.slots = %d, want %d", meta.Slots, pops.OptimalSlots(d, g))
	}
	if slotFrames != meta.Fragments {
		t.Fatalf("%d slot frames, meta promised %d", slotFrames, meta.Fragments)
	}
	if !sawDone {
		t.Fatal("stream ended without a done frame")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain within 15s")
	}
}

// TestServeSmokeStreamHRelation rounds an h-relation workload through
// POST /route/stream: raw HTTP/1.1 over TCP so the chunked framing can be
// counted (the slot records must arrive as >= 2 separate flushes while the
// server is still peeling later König factors), then the identical workload
// again through the Go client, asserting the replay is answered by the
// shard's workload plan cache.
func TestServeSmokeStreamHRelation(t *testing.T) {
	addr, cancel, done := startServer(t)

	const d, g, h = 4, 8, 2
	n := d * g
	var reqs []wire.Request
	for k := 0; k < h; k++ {
		for s := 0; s < n; s++ {
			reqs = append(reqs, wire.Request{Src: s, Dst: (s + k + 1) % n})
		}
	}
	body, err := json.Marshal(wire.RouteRequest{D: d, G: g, Workload: wire.WorkloadHRelation, Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	fmt.Fprintf(conn, "POST /route/stream HTTP/1.1\r\nHost: popsserved\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)

	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("status line %q", strings.TrimSpace(status))
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) == "" {
			break
		}
	}

	// Parse the chunked framing by hand, counting the flushes.
	var payload []byte
	chunks := 0
	for {
		sizeLine, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		size, err := strconv.ParseUint(strings.TrimSpace(sizeLine), 16, 32)
		if err != nil {
			t.Fatalf("chunk size line %q: %v", strings.TrimSpace(sizeLine), err)
		}
		if size == 0 {
			break
		}
		chunks++
		buf := make([]byte, size+2) // chunk data + trailing CRLF
		if _, err := io.ReadFull(br, buf); err != nil {
			t.Fatal(err)
		}
		payload = append(payload, buf[:size]...)
	}
	if chunks < 2 {
		t.Fatalf("h-relation stream arrived in %d chunk(s); want >= 2 (one per flushed record)", chunks)
	}

	lines := strings.Split(strings.TrimSpace(string(payload)), "\n")
	var meta wire.StreamRecord
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil || meta.Type != "meta" || meta.Meta == nil {
		t.Fatalf("first record %q (err %v)", lines[0], err)
	}
	wantSlots := h * pops.OptimalSlots(d, g)
	if meta.Meta.Workload != wire.WorkloadHRelation || meta.Meta.Slots != wantSlots || meta.Meta.Cached {
		t.Fatalf("meta = %+v, want workload %q with %d uncached slots", *meta.Meta, wire.WorkloadHRelation, wantSlots)
	}
	slotRecords := 0
	for _, line := range lines[1 : len(lines)-1] {
		var rec wire.StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Type != "slot" || rec.Slot == nil {
			t.Fatalf("slot record %q (err %v)", line, err)
		}
		slotRecords++
	}
	if slotRecords != meta.Meta.Fragments {
		t.Fatalf("%d slot records, meta promised %d", slotRecords, meta.Meta.Fragments)
	}
	var doneRec wire.StreamRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doneRec); err != nil || doneRec.Type != "done" {
		t.Fatalf("last record %q (err %v)", lines[len(lines)-1], err)
	}

	// Replay the identical workload through the Go client: the stream must
	// be answered from the shard's workload plan cache.
	client := pops.NewServiceClient("http://"+addr.String(), nil)
	popsReqs := make([]pops.Request, len(reqs))
	for i, r := range reqs {
		popsReqs[i] = pops.Request{Src: r.Src, Dst: r.Dst}
	}
	st, err := client.ExecuteStream(context.Background(), d, g, pops.HRelation(popsReqs))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Meta().Cached {
		t.Fatal("replayed h-relation stream was not a cache hit")
	}
	replayed := 0
	for {
		rec, err := st.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		replayed++
	}
	if replayed != wantSlots {
		t.Fatalf("replay delivered %d slots, want %d", replayed, wantSlots)
	}
	st.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain within 15s")
	}
}

// TestGracefulDrainFinishesStreams opens a slot stream, consumes only its
// first record, signals shutdown, and then asserts every remaining slot —
// and the done record — still arrives before the server exits: graceful
// drain must finish in-flight streams, not just unary requests.
func TestGracefulDrainFinishesStreams(t *testing.T) {
	addr, cancel, done := startServer(t)
	client := pops.NewServiceClient("http://"+addr.String(), nil)

	const d, g = 8, 16 // 2·max(d,g) = 32 fragments: plenty left after the signal
	pi := pops.VectorReversal(d * g)
	st, err := client.RouteStream(context.Background(), d, g, pi)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if rec, err := st.Next(); err != nil || rec == nil {
		t.Fatalf("first fragment: %v %v", rec, err)
	}

	cancel() // SIGINT path: listener stops, drain begins with our stream open

	got := 1
	for {
		rec, err := st.Next()
		if err != nil {
			t.Fatalf("fragment %d after shutdown began: %v", got, err)
		}
		if rec == nil {
			break
		}
		got++
	}
	if got != st.Meta().Fragments {
		t.Fatalf("drained %d of %d fragments after signal", got, st.Meta().Fragments)
	}
	if st.Done() == nil {
		t.Fatal("no done record after drain")
	}
	st.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after draining the stream")
	}
}

// TestDrainTimeoutBoundsWedgedConnection pins the -drain-timeout contract:
// a connection that can never finish — here a request whose body never
// arrives — must not hold graceful shutdown open past the deadline. The
// server force-closes it, exits, and reports the blown deadline.
func TestDrainTimeoutBoundsWedgedConnection(t *testing.T) {
	addr, cancel, done := startServer(t, "-drain-timeout", "300ms")

	// Wedge a connection: claim a large body, send one byte, go silent. The
	// handler blocks decoding the request body, keeping the connection
	// active through shutdown.
	conn, err := net.DialTimeout("tcp", addr.String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /route HTTP/1.1\r\nHost: popsserved\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{")
	time.Sleep(200 * time.Millisecond) // let the request reach the handler

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shutdown with a wedged connection returned %v, want the blown drain deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wedged connection held shutdown past the drain deadline")
	}
	if waited := time.Since(start); waited < 250*time.Millisecond {
		t.Fatalf("server exited after %s, before the 300ms drain deadline", waited)
	}

	// The force-close must reach the wedged peer: its next read fails.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(conn, buf); err == nil {
		// A byte may arrive if the server wrote an error response before
		// closing; the connection must still be torn down right after.
		if _, err := io.Copy(io.Discard, conn); err == nil {
			t.Log("server wrote a response before closing the wedged connection")
		}
	}
}

// TestRunRejectsBadFlags pins flag-parse failures to an error, not an
// os.Exit deep in the run path.
func TestRunRejectsBadFlags(t *testing.T) {
	err := run(context.Background(), []string{"-cache", "x"}, testWriter{t}, nil)
	if err == nil {
		t.Fatal("bad flags accepted")
	}
}

// TestRunFailsOnUnusableAddr covers the listen error path.
func TestRunFailsOnUnusableAddr(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "256.256.256.256:1"}, testWriter{t}, nil)
	if err == nil {
		t.Fatal("unusable address accepted")
	}
}

// testWriter routes the server's stdout lines into the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestFaultSmoke is the end-to-end fault-tolerance smoke `make fault-smoke`
// runs: round-trip a FaultyPermutation workload through a live popsserved,
// verify the returned schedule on the fault-injected simulator (full delivery,
// zero dead-coupler use), replay it for a cache hit, read the fault counters
// off /stats, and assert a dead-group request comes back as a typed
// *pops.UnroutableError across the wire.
func TestFaultSmoke(t *testing.T) {
	addr, cancel, done := startServer(t)
	ctx := context.Background()
	client := pops.NewServiceClient("http://"+addr.String(), nil)

	const d, g = 3, 4
	pi := pops.VectorReversal(d * g)
	faults := &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 2}, {B: 3, A: 0}, {B: 0, A: 0}}}

	resp, err := client.Do(ctx, &pops.ServiceRouteRequest{
		D: d, G: g, Workload: wire.WorkloadFaultyPermutation,
		Pi: pi, Faults: faults, IncludeSchedule: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Plans) != 1 || resp.Plans[0].Error != "" {
		t.Fatalf("route response: %+v", resp.Plans)
	}
	plan := resp.Plans[0]
	if plan.Workload != wire.WorkloadFaultyPermutation || plan.Strategy != pops.StrategyFaulty {
		t.Fatalf("plan tags: workload=%q strategy=%q", plan.Workload, plan.Strategy)
	}
	if plan.Schedule == nil {
		t.Fatal("no schedule despite include_schedule")
	}

	// The served schedule is the oracle: replay it on the fault-injected
	// simulator and scan every send against the dead set.
	nw, err := popsnet.NewNetwork(d, g)
	if err != nil {
		t.Fatal(err)
	}
	fs := popsnet.FaultSet{Couplers: []popsnet.Coupler{{B: 1, A: 2}, {B: 3, A: 0}, {B: 0, A: 0}}}
	fn, err := fs.Compile(nw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := popsnet.VerifyPermutationRoutedFaulty(plan.Schedule, pi, fn); err != nil {
		t.Fatalf("served schedule failed fault replay: %v", err)
	}
	for i, slot := range plan.Schedule.Slots {
		for _, snd := range slot.Sends {
			if fn.Dead(snd.DestGroup, nw.Group(snd.Src)) {
				t.Fatalf("served slot %d drives dead coupler c(%d,%d)", i, snd.DestGroup, nw.Group(snd.Src))
			}
		}
	}

	// The identical workload through the typed client is a fingerprint-cache
	// hit on the same shard.
	replay, err := client.Execute(ctx, d, g, pops.FaultyPermutation(pi, fs))
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Cached {
		t.Fatal("replayed fault workload was not a cache hit")
	}

	// A dead group severs every permutation: the verdict must round-trip as
	// a typed *pops.UnroutableError, not a string.
	_, err = client.Execute(ctx, d, g, pops.FaultyPermutation(pi, pops.FaultSet{Groups: []int{2}}))
	var ue *pops.UnroutableError
	if !errors.As(err, &ue) {
		t.Fatalf("dead-group request: error = %v, want *pops.UnroutableError", err)
	}
	if !ue.SeveredSrc && !ue.SeveredDst {
		t.Fatalf("unroutable verdict not marked severed: %+v", ue)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultPlans != 3 {
		t.Fatalf("stats.fault_plans = %d, want 3", stats.FaultPlans)
	}
	if stats.Unroutable != 1 {
		t.Fatalf("stats.unroutable = %d, want 1", stats.Unroutable)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain within 15s")
	}
}
