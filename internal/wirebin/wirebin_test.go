package wirebin

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"pops/internal/popsnet"
	"pops/internal/wire"
)

// randomSlot builds a random slot fragment of up to n sends/recvs.
func randomSlot(rng *rand.Rand, n int) wire.StreamSlot {
	s := wire.StreamSlot{
		Slot:   rng.Intn(1 << 12),
		Color:  rng.Intn(66) - 1, // includes -1, the whole-slot marker
		Offset: rng.Intn(1 << 10),
		Final:  rng.Intn(2) == 0,
	}
	for i := 0; i < rng.Intn(n+1); i++ {
		s.Sends = append(s.Sends, popsnet.Send{
			Src:       rng.Intn(1 << 16),
			DestGroup: rng.Intn(1 << 8),
			Packet:    rng.Intn(1 << 16),
		})
	}
	for i := 0; i < rng.Intn(n+1); i++ {
		s.Recvs = append(s.Recvs, popsnet.Recv{
			Proc:     rng.Intn(1 << 16),
			SrcGroup: rng.Intn(1 << 8),
		})
	}
	return s
}

// decodeOne runs one encoded frame through a Decoder and returns type and
// payload.
func decodeOne(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	d := NewDecoder(bytes.NewReader(frame))
	typ, payload, err := d.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return typ, payload
}

func TestSlotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := GetEncoder()
	defer PutEncoder(e)
	for i := 0; i < 500; i++ {
		in := randomSlot(rng, 64)
		typ, payload := decodeOne(t, e.AppendSlot(&in))
		if typ != FrameSlot {
			t.Fatalf("frame type %d, want %d", typ, FrameSlot)
		}
		var out wire.StreamSlot
		if err := DecodeSlot(payload, &out); err != nil {
			t.Fatalf("DecodeSlot: %v", err)
		}
		// Decode-into leaves empty slices non-nil after reuse; normalize.
		if len(in.Sends) == 0 {
			in.Sends = nil
		}
		if len(in.Recvs) == 0 {
			in.Recvs = nil
		}
		if len(out.Sends) == 0 {
			out.Sends = nil
		}
		if len(out.Recvs) == 0 {
			out.Recvs = nil
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
	}
}

func TestMetaDoneErrorRoundTrip(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)

	meta := wire.StreamMeta{
		D: 16, G: 64, Workload: "hrelation", Slots: 33, Fragments: 130,
		Strategy: "theorem2", Fingerprint: "00deadbeef00cafe", Cached: true,
		RequestID: "0123456789abcdef",
	}
	typ, payload := decodeOne(t, e.AppendMeta(&meta))
	if typ != FrameMeta {
		t.Fatalf("frame type %d, want %d", typ, FrameMeta)
	}
	var gotMeta wire.StreamMeta
	if err := DecodeMeta(payload, &gotMeta); err != nil {
		t.Fatalf("DecodeMeta: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip mismatch:\n in  %+v\n out %+v", meta, gotMeta)
	}

	done := wire.StreamDone{Slots: 33, Fragments: 130}
	typ, payload = decodeOne(t, e.AppendDone(&done))
	if typ != FrameDone {
		t.Fatalf("frame type %d, want %d", typ, FrameDone)
	}
	var gotDone wire.StreamDone
	if err := DecodeDone(payload, &gotDone); err != nil {
		t.Fatalf("DecodeDone: %v", err)
	}
	if gotDone != done {
		t.Fatalf("done round trip mismatch: %+v vs %+v", done, gotDone)
	}

	typ, payload = decodeOne(t, e.AppendError("planner exploded"))
	if typ != FrameError {
		t.Fatalf("frame type %d, want %d", typ, FrameError)
	}
	msg, err := DecodeError(payload)
	if err != nil || msg != "planner exploded" {
		t.Fatalf("DecodeError = %q, %v", msg, err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	cases := []wire.RouteRequest{
		{D: 4, G: 8, Pi: []int{3, 2, 1, 0}},
		{D: 8, G: 8, Pis: [][]int{{1, 0}, {0, 1}}, Strategy: "greedy", IncludeSchedule: true},
		{D: 2, G: 2, Workload: wire.WorkloadHRelation, Requests: []wire.Request{{Src: 0, Dst: 3}, {Src: 1, Dst: 1}}},
		{D: 2, G: 4, Workload: wire.WorkloadOneToAll, Speaker: 5, Tenant: "gold"},
		{D: 4, G: 4, Workload: wire.WorkloadFaultyPermutation, Pi: []int{0, 1, 2, 3},
			Faults: &wire.FaultSet{Couplers: []wire.Coupler{{B: 1, A: 2}}, Groups: []int{3}}},
		{D: 4, G: 4, Workload: wire.WorkloadFaultyPermutation, Pi: []int{1, 0},
			Faults: &wire.FaultSet{}}, // present but empty fault set survives
	}
	for _, in := range cases {
		typ, payload := decodeOne(t, e.AppendRequest(&in))
		if typ != FrameRequest {
			t.Fatalf("frame type %d, want %d", typ, FrameRequest)
		}
		var out wire.RouteRequest
		if err := DecodeRequest(payload, &out); err != nil {
			t.Fatalf("DecodeRequest(%+v): %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("request round trip mismatch:\n in  %+v\n out %+v", in, out)
		}
	}
}

// TestReadRouteRequestRejectsTrailingBytes pins the one request reader of
// the HTTP tiers: exact bodies and JSON's trailing whitespace decode, any
// other byte after the request is an error in either codec.
func TestReadRouteRequestRejectsTrailingBytes(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	in := wire.RouteRequest{D: 2, G: 2, Pi: []int{1, 0, 3, 2}}
	frame := string(e.AppendRequest(&in))
	const js = `{"d":2,"g":2,"pi":[1,0,3,2]}`
	for _, tc := range []struct {
		contentType, body string
		ok                bool
	}{
		{"application/json", js, true},
		{"application/json", js + " \n\t", true},
		{"", js + "\n", true},
		{"application/json", js + " trailing-garbage", false},
		{"application/json", js + js, false},
		{"application/json", js + "}", false},
		{"application/json", "", false},
		{ContentType, frame, true},
		{ContentType, frame + "\n", false},
		{ContentType, frame + frame, false},
		{ContentType, "", false},
	} {
		var out wire.RouteRequest
		err := ReadRouteRequest(tc.contentType, bytes.NewReader([]byte(tc.body)), &out)
		if (err == nil) != tc.ok {
			t.Errorf("%q %q: err = %v, want ok=%v", tc.contentType, tc.body, err, tc.ok)
		}
		if err == nil && !reflect.DeepEqual(out, in) {
			t.Errorf("%q %q: decoded %+v, want %+v", tc.contentType, tc.body, out, in)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	sched := &popsnet.Schedule{
		Net: popsnet.Network{D: 2, G: 2},
		Slots: []popsnet.Slot{
			{Sends: []popsnet.Send{{Src: 0, DestGroup: 1, Packet: 2}}, Recvs: []popsnet.Recv{{Proc: 3, SrcGroup: 0}}},
			{Sends: []popsnet.Send{{Src: 1, DestGroup: 0, Packet: 0}}, Recvs: []popsnet.Recv{{Proc: 0, SrcGroup: 1}}},
		},
	}
	in := wire.RouteResponse{
		D: 2, G: 2, RequestID: "feedfacefeedface",
		Plans: []wire.PlanResult{
			{Strategy: "theorem2", Slots: 2, Rounds: 1, Fingerprint: "0011223344556677", Cached: true, Schedule: sched},
			{Error: "no plan for you"},
			{Workload: wire.WorkloadFaultyPermutation, Error: "unroutable",
				Unroutable: &wire.UnroutableInfo{Packet: 7, SrcGroup: 1, DstGroup: 3, SeveredDst: true}},
			{Workload: wire.WorkloadHRelation, Strategy: "hrelation", Slots: 9, Rounds: 3, H: 4, Fingerprint: "8899aabbccddeeff"},
		},
	}
	typ, payload := decodeOne(t, e.AppendResponse(&in))
	if typ != FrameResponse {
		t.Fatalf("frame type %d, want %d", typ, FrameResponse)
	}
	var out wire.RouteResponse
	if err := DecodeResponse(payload, &out); err != nil {
		t.Fatalf("DecodeResponse: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("response round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

// TestDecoderFrameSequence drains a multi-frame buffer and checks clean EOF
// at the boundary.
func TestDecoderFrameSequence(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	var stream []byte
	stream = append(stream, e.AppendMeta(&wire.StreamMeta{D: 2, G: 2, Slots: 1, Fragments: 1, Strategy: "theorem2"})...)
	stream = append(stream, e.AppendSlot(&wire.StreamSlot{Slot: 0, Color: -1, Final: true})...)
	stream = append(stream, e.AppendDone(&wire.StreamDone{Slots: 1, Fragments: 1})...)

	d := GetDecoder(bytes.NewReader(stream))
	defer PutDecoder(d)
	wantTypes := []byte{FrameMeta, FrameSlot, FrameDone}
	for _, want := range wantTypes {
		typ, _, err := d.ReadFrame()
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != want {
			t.Fatalf("frame type %d, want %d", typ, want)
		}
	}
	if _, _, err := d.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestDecoderRejectsCorruptInput pins the typed verdict on the adversarial
// inputs that matter: truncation (mid-prefix and mid-payload), oversized
// length prefixes, unknown versions, and counts past the payload.
func TestDecoderRejectsCorruptInput(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	slot := randomSlot(rand.New(rand.NewSource(7)), 8)
	frame := append([]byte(nil), e.AppendSlot(&slot)...)

	cases := map[string][]byte{
		"truncated payload":  frame[:len(frame)-1],
		"truncated prefix":   {0x80},
		"zero-length frame":  {0x00},
		"oversized length":   {0xff, 0xff, 0xff, 0xff, 0x7f},
		"unknown version":    {0x02, 99, FrameSlot},
		"huge element count": append(append([]byte{}, frame[:6]...), 0xff, 0xff, 0x03),
	}
	for name, data := range cases {
		d := NewDecoder(bytes.NewReader(data))
		typ, payload, err := d.ReadFrame()
		if err == nil {
			var s wire.StreamSlot
			switch typ {
			case FrameSlot:
				err = DecodeSlot(payload, &s)
			default:
				t.Fatalf("%s: unexpected clean frame type %d", name, typ)
			}
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Errorf("%s: error %v, want ErrCorruptFrame", name, err)
		}
	}

	// Trailing garbage after a valid payload must be rejected too.
	grown := append(append([]byte{}, frame...), 0x01)
	grown[0]++ // stretch the announced payload over the garbage byte
	d := NewDecoder(bytes.NewReader(grown))
	typ, payload, err := d.ReadFrame()
	if err == nil && typ == FrameSlot {
		var s wire.StreamSlot
		err = DecodeSlot(payload, &s)
	}
	if !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("trailing bytes: error %v, want ErrCorruptFrame", err)
	}
}

func TestAccepts(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"application/json", false},
		{"application/x-ndjson", false},
		{"text/html, application/xhtml+xml", false},
		{"*/*", false}, // binary is opt-in by name, never by wildcard
		{ContentType, true},
		{"application/X-POPS-BIN", true},
		{"application/x-pops-bin, application/json;q=0.9", true},
		{"application/json;q=0.9, application/x-pops-bin", true},
		{"application/x-pops-bin;q=0", false},
		{"application/x-pops-bin; q=0.0, application/json", false},
		{"application/x-pops-bin;q=0.5", true},
	}
	for _, c := range cases {
		if got := Accepts(c.accept); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

func TestIsContentType(t *testing.T) {
	cases := []struct {
		ct   string
		want bool
	}{
		{"", false},
		{"application/json", false},
		{ContentType, true},
		{"application/x-pops-bin; charset=binary", true},
		{" Application/X-Pops-Bin ", true},
	}
	for _, c := range cases {
		if got := IsContentType(c.ct); got != c.want {
			t.Errorf("IsContentType(%q) = %v, want %v", c.ct, got, c.want)
		}
	}
}

// TestReframerSplitsFrames drives a reframer over a stream delivered in
// pathological pieces — one byte at a time, so every frame spans many read
// boundaries — and checks each relayed frame is whole and byte-identical.
func TestReframerSplitsFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := GetEncoder()
	defer PutEncoder(e)
	var stream []byte
	var want [][]byte
	meta := e.AppendMeta(&wire.StreamMeta{D: 8, G: 8, Slots: 9, Fragments: 20, Strategy: "theorem2"})
	want = append(want, append([]byte(nil), meta...))
	stream = append(stream, meta...)
	for i := 0; i < 20; i++ {
		s := randomSlot(rng, 32)
		frame := e.AppendSlot(&s)
		want = append(want, append([]byte(nil), frame...))
		stream = append(stream, frame...)
	}
	doneF := e.AppendDone(&wire.StreamDone{Slots: 9, Fragments: 20})
	want = append(want, append([]byte(nil), doneF...))
	stream = append(stream, doneF...)

	rf := NewReframer(iotest{data: stream}.reader())
	for i, wf := range want {
		got, err := rf.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, wf) {
			t.Fatalf("frame %d relayed differently (%d vs %d bytes)", i, len(got), len(wf))
		}
	}
	if _, err := rf.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestReframerTruncatedStream pins that a stream dying mid-frame surfaces a
// typed error instead of a partial relay.
func TestReframerTruncatedStream(t *testing.T) {
	e := GetEncoder()
	defer PutEncoder(e)
	s := randomSlot(rand.New(rand.NewSource(5)), 16)
	frame := e.AppendSlot(&s)
	rf := NewReframer(bytes.NewReader(frame[:len(frame)-3]))
	if _, err := rf.Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("truncated stream: %v, want ErrCorruptFrame", err)
	}
}

// iotest delivers a buffer one byte per Read call.
type iotest struct{ data []byte }

func (it iotest) reader() io.Reader { return &oneByteReader{data: it.data} }

type oneByteReader struct {
	data []byte
	pos  int
}

func (r *oneByteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	p[0] = r.data[r.pos]
	r.pos++
	return 1, nil
}
