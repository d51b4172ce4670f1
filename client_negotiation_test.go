package pops

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pops/internal/wire"
	"pops/internal/wirebin"
)

// sentBody is one request a negotiationServer saw: the codec its body was
// framed in (read off the first frame, not just the Content-Type), whether
// it offered binary, and the request it decoded to.
type sentBody struct {
	path        string
	binary      bool
	offerBinary bool
	req         wire.RouteRequest
}

// negotiationServer answers /route and /route/stream in binary when the
// caller's Accept offers the binary codec and in JSON/NDJSON otherwise, and
// records every request body. While refuse is set it answers any binary
// offer 406 instead.
func negotiationServer(t *testing.T, refuse *atomic.Bool) (*httptest.Server, func() []sentBody) {
	t.Helper()
	var mu sync.Mutex
	var seen []sentBody
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		sb := sentBody{path: r.URL.Path, offerBinary: strings.Contains(r.Header.Get("Accept"), wirebin.ContentType)}
		if typ, _, err := wirebin.NewDecoder(bytes.NewReader(raw)).ReadFrame(); err == nil && typ == wirebin.FrameRequest {
			sb.binary = true
		}
		if err := wirebin.ReadRouteRequest(r.Header.Get("Content-Type"), bytes.NewReader(raw), &sb.req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seen = append(seen, sb)
		mu.Unlock()
		if sb.offerBinary && refuse.Load() {
			http.Error(w, "binary not spoken here", http.StatusNotAcceptable)
			return
		}
		// Built from the frame encoder and encoding/json directly, so the
		// fake speaks the protocol independently of the client's codec.
		bin := sb.offerBinary
		enc := wirebin.GetEncoder()
		defer wirebin.PutEncoder(enc)
		var out []byte
		switch {
		case r.URL.Path == "/route/stream" && bin:
			w.Header().Set("Content-Type", wirebin.ContentType)
			out = append(out, enc.AppendMeta(&wire.StreamMeta{D: sb.req.D, G: sb.req.G, Slots: 1, Fragments: 1})...)
			out = append(out, enc.AppendSlot(&wire.StreamSlot{Color: -1, Final: true})...)
			out = append(out, enc.AppendDone(&wire.StreamDone{Slots: 1, Fragments: 1})...)
		case r.URL.Path == "/route/stream":
			w.Header().Set("Content-Type", "application/x-ndjson")
			for _, rec := range []wire.StreamRecord{
				{Type: "meta", Meta: &wire.StreamMeta{D: sb.req.D, G: sb.req.G, Slots: 1, Fragments: 1}},
				{Type: "slot", Slot: &wire.StreamSlot{Color: -1, Final: true}},
				{Type: "done", Done: &wire.StreamDone{Slots: 1, Fragments: 1}},
			} {
				line, _ := json.Marshal(rec)
				out = append(append(out, line...), '\n')
			}
		case bin:
			w.Header().Set("Content-Type", wirebin.ContentType)
			out = enc.AppendResponse(&wire.RouteResponse{D: sb.req.D, G: sb.req.G, Plans: []wire.PlanResult{{Slots: 8}}})
		default:
			w.Header().Set("Content-Type", "application/json")
			out, _ = json.Marshal(wire.RouteResponse{D: sb.req.D, G: sb.req.G, Plans: []wire.PlanResult{{Slots: 8}}})
		}
		w.Write(out)
	}))
	t.Cleanup(srv.Close)
	return srv, func() []sentBody {
		mu.Lock()
		defer mu.Unlock()
		return append([]sentBody(nil), seen...)
	}
}

// TestServiceClientCodecBinarySendsFrameRequest pins that a client pinned to
// the binary codec frames its request bodies too, on /route and
// /route/stream, and that the frame carries the whole request.
func TestServiceClientCodecBinarySendsFrameRequest(t *testing.T) {
	srv, seen := negotiationServer(t, new(atomic.Bool))
	client := NewServiceClient(srv.URL, nil).WithCodec(CodecBinary)
	ctx := context.Background()
	pi := VectorReversal(32)
	if _, err := client.Execute(ctx, 4, 8, FaultyPermutation(pi, FaultSet{Groups: []int{3}})); err != nil {
		t.Fatal(err)
	}
	st, err := client.ExecuteStream(ctx, 4, 8, Permutation(pi))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	got := seen()
	if len(got) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(got))
	}
	for _, sb := range got {
		if !sb.binary {
			t.Errorf("%s: CodecBinary sent a JSON body", sb.path)
		}
	}
	if r := got[0].req; r.Workload != WorkloadFaultyPermutation || len(r.Pi) != 32 || r.Faults == nil || len(r.Faults.Groups) != 1 {
		t.Errorf("/route frame decoded to %+v", r)
	}
}

// TestServiceClientCodecAutoSendsBinaryAfterBinaryAnswer pins CodecAuto's
// request-body negotiation: JSON until a binary answer proves the server
// speaks the codec, binary frames from then on — across /route and
// /route/stream, and across WithRetry copies of the client.
func TestServiceClientCodecAutoSendsBinaryAfterBinaryAnswer(t *testing.T) {
	srv, seen := negotiationServer(t, new(atomic.Bool))
	client := NewServiceClient(srv.URL, nil)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := client.Execute(ctx, 4, 8, Permutation(VectorReversal(32))); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.WithRetry(RetryPolicy{MaxRetries: 1}).ExecuteStream(ctx, 4, 8, Permutation(VectorReversal(32)))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	got := seen()
	if len(got) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(got))
	}
	for i, want := range []bool{false, true, true} {
		if got[i].binary != want || !got[i].offerBinary {
			t.Errorf("call %d (%s): binary body %v, offered binary %v; want body %v, offer true", i, got[i].path, got[i].binary, got[i].offerBinary, want)
		}
	}
}

// TestServiceClientCodec406ReplaysJSON pins the downgrade of a client that
// already sends binary bodies: the server 406es the binary offer, and the
// replayed attempt — and every later call — is a plain JSON body with no
// binary offer.
func TestServiceClientCodec406ReplaysJSON(t *testing.T) {
	refuse := new(atomic.Bool)
	srv, seen := negotiationServer(t, refuse)
	client := NewServiceClient(srv.URL, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if i == 1 {
			refuse.Store(true)
		}
		plan, err := client.Execute(ctx, 4, 8, Permutation(VectorReversal(32)))
		if err != nil || plan.Slots != 8 {
			t.Fatalf("call %d: %+v, %v", i, plan, err)
		}
	}
	got := seen()
	// Call 0 proves binary; call 1 sends a frame, is refused, and replays as
	// JSON; call 2 stays JSON.
	want := []struct{ binary, offer bool }{{false, true}, {true, true}, {false, false}, {false, false}}
	if len(got) != len(want) {
		t.Fatalf("server saw %d requests, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].binary != w.binary || got[i].offerBinary != w.offer {
			t.Errorf("request %d: binary body %v, offered binary %v; want %v, %v", i, got[i].binary, got[i].offerBinary, w.binary, w.offer)
		}
	}
}

// TestServiceClientCodecAutoConcurrent drives one CodecAuto client from
// several goroutines while the first binary answer flips the shared
// negotiation state: every call succeeds, every body is a whole request in
// one codec or the other, and a call after the flip sends a frame.
func TestServiceClientCodecAutoConcurrent(t *testing.T) {
	srv, seen := negotiationServer(t, new(atomic.Bool))
	client := NewServiceClient(srv.URL, nil)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if _, err := client.WithRetry(RetryPolicy{}).Execute(ctx, 4, 8, Permutation(VectorReversal(32))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := client.Execute(ctx, 4, 8, Permutation(VectorReversal(32))); err != nil {
		t.Fatal(err)
	}
	got := seen()
	if len(got) != 33 {
		t.Fatalf("server saw %d requests, want 33", len(got))
	}
	for i, sb := range got {
		if len(sb.req.Pi) != 32 {
			t.Errorf("request %d decoded to %+v", i, sb.req)
		}
	}
	if !got[len(got)-1].binary {
		t.Error("a call after binary answers still sent a JSON body")
	}
}
