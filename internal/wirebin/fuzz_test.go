package wirebin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pops/internal/wire"
)

// FuzzDecodeFrame feeds arbitrary bytes through the full decode surface —
// frame reader, reframer, and every per-type payload decoder — asserting the
// codec never panics, fails only with typed errors, and that anything it
// accepts re-encodes stably: decode→encode→decode→encode yields identical
// bytes, so an accepted frame has one canonical form.
func FuzzDecodeFrame(f *testing.F) {
	// Seed with one valid frame of every type so the fuzzer starts from
	// well-formed inputs and mutates toward the edges.
	e := GetEncoder()
	rng := rand.New(rand.NewSource(42))
	slot := randomSlot(rng, 16)
	f.Add(append([]byte(nil), e.AppendSlot(&slot)...))
	f.Add(append([]byte(nil), e.AppendMeta(&wire.StreamMeta{
		D: 16, G: 64, Workload: "permutation", Slots: 17, Fragments: 40,
		Strategy: "theorem2", Fingerprint: "aabbccdd", RequestID: "r1",
	})...))
	f.Add(append([]byte(nil), e.AppendDone(&wire.StreamDone{Slots: 17, Fragments: 40})...))
	f.Add(append([]byte(nil), e.AppendError("backend on fire")...))
	req := wire.RouteRequest{D: 4, G: 8, Pi: []int{1, 0, 3, 2}, Strategy: "greedy"}
	f.Add(append([]byte(nil), e.AppendRequest(&req)...))
	resp := wire.RouteResponse{D: 4, G: 8, Plans: []wire.PlanResult{{Strategy: "greedy", Slots: 4, Rounds: 1, Fingerprint: "00ff"}}}
	f.Add(append([]byte(nil), e.AppendResponse(&resp)...))
	PutEncoder(e)
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(bytes.NewReader(data))
		for {
			typ, payload, err := d.ReadFrame()
			if err != nil {
				// Any failure must be a clean EOF at a frame boundary or a
				// typed corrupt-frame error — never a raw io error or panic.
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("ReadFrame: untyped error %v", err)
				}
				break
			}
			checkReencodeStable(t, typ, payload)
		}

		// The reframer must agree with the decoder on where frames end.
		rf := NewReframer(bytes.NewReader(data))
		for {
			frame, err := rf.Next()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorruptFrame) {
					t.Fatalf("Reframer.Next: untyped error %v", err)
				}
				break
			}
			if len(frame) < 3 {
				t.Fatalf("Reframer relayed a %d-byte frame", len(frame))
			}
		}
	})
}

// checkReencodeStable decodes one accepted payload; when the decode succeeds
// it re-encodes, decodes the re-encoding, and re-encodes again, asserting the
// two generations are byte-identical. (The first decode may accept
// non-minimal varint spellings, so generation-one bytes are the canonical
// form, not the input.)
func checkReencodeStable(t *testing.T, typ byte, payload []byte) {
	t.Helper()
	gen1 := encodeDecoded(t, typ, payload, true)
	if gen1 == nil {
		return // decode rejected the payload with a typed error
	}
	d := NewDecoder(bytes.NewReader(gen1))
	typ2, payload2, err := d.ReadFrame()
	if err != nil || typ2 != typ {
		t.Fatalf("type %d: canonical frame failed to re-read: typ=%d err=%v", typ, typ2, err)
	}
	gen2 := encodeDecoded(t, typ, payload2, false)
	if !bytes.Equal(gen1, gen2) {
		t.Fatalf("type %d re-encode unstable:\n gen1 %x\n gen2 %x", typ, gen1, gen2)
	}
}

// encodeDecoded decodes payload as frame type typ and returns a copy of its
// re-encoded frame. A decode failure returns nil when lenient (after
// asserting the error is typed) and fails the test otherwise.
func encodeDecoded(t *testing.T, typ byte, payload []byte, lenient bool) []byte {
	t.Helper()
	fail := func(err error) []byte {
		if !lenient {
			t.Fatalf("type %d: canonical payload failed to decode: %v", typ, err)
		}
		if !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("type %d: decode failure not tagged ErrCorruptFrame: %v", typ, err)
		}
		return nil
	}
	e := GetEncoder()
	defer PutEncoder(e)
	switch typ {
	case FrameSlot:
		var s wire.StreamSlot
		if err := DecodeSlot(payload, &s); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendSlot(&s)...)
	case FrameMeta:
		var m wire.StreamMeta
		if err := DecodeMeta(payload, &m); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendMeta(&m)...)
	case FrameDone:
		var dn wire.StreamDone
		if err := DecodeDone(payload, &dn); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendDone(&dn)...)
	case FrameError:
		msg, err := DecodeError(payload)
		if err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendError(msg)...)
	case FrameRequest:
		var r wire.RouteRequest
		if err := DecodeRequest(payload, &r); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendRequest(&r)...)
	case FrameResponse:
		var r wire.RouteResponse
		if err := DecodeResponse(payload, &r); err != nil {
			return fail(err)
		}
		return append([]byte(nil), e.AppendResponse(&r)...)
	default:
		// Unknown frame types pass through ReadFrame (forward compatibility
		// for relays); there is nothing to re-encode.
		return nil
	}
}

// FuzzRouteRequestCrossCodec pins the one request reader across codecs: a
// fuzzer-chosen route request — any workload kind, a permutation or a
// batch, h-relation demands, a fault set, tenant, strategy and
// include_schedule — encoded through the JSON and the binary codec must read
// back through ReadRouteRequest as equal structs, so a server (and the
// proxy's placement) sees one request whichever codec carried it.
func FuzzRouteRequestCrossCodec(f *testing.F) {
	kinds := []string{"", wire.WorkloadPermutation, wire.WorkloadHRelation,
		wire.WorkloadAllToAll, wire.WorkloadOneToAll, wire.WorkloadFaultyPermutation}
	for i, kind := range kinds {
		f.Add(kind, 4, 8, uint8(i*37), []byte{1, 0, 3, 2, 5, 4, 7, 6, 0xff, 0x80}, "gold", "theorem2", i%2 == 0, i)
	}
	f.Add("gossip", -1, 1<<40, uint8(0xff), []byte{}, "", "auto", true, -3)
	f.Add("", 0, 0, uint8(2), []byte{9}, "t\xffnant", "", false, 0)

	f.Fuzz(func(t *testing.T, workload string, d, g int, mask uint8, payload []byte, tenant, strategy string, schedule bool, speaker int) {
		req := crossCodecRequest(workload, d, g, mask, payload, tenant, strategy, schedule, speaker)
		var got [2]wire.RouteRequest
		for i, c := range []Codec{JSON, Binary} {
			body, err := c.AppendRequest(nil, &req)
			if err != nil {
				t.Fatalf("codec %d: encoding %+v: %v", c, req, err)
			}
			if err := ReadRouteRequest(c.ContentType(false), bytes.NewReader(body), &got[i]); err != nil {
				t.Fatalf("codec %d: reading back %+v: %v", c, req, err)
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("codecs disagree on %+v:\n json   %+v\n binary %+v", req, got[0], got[1])
		}
	})
}

// crossCodecRequest builds FuzzRouteRequestCrossCodec's request. Mask bits
// pick the payload fields — pi, pis, requests, faults — and payload supplies
// their signed 16-bit values. Strings are made valid UTF-8 first: JSON can
// carry nothing else (encoding/json rewrites invalid bytes), while frames
// carry raw bytes. An empty list is built nil, the one spelling both codecs
// share (a frame has no null, and JSON omits or nulls a nil list).
func crossCodecRequest(workload string, d, g int, mask uint8, payload []byte, tenant, strategy string, schedule bool, speaker int) wire.RouteRequest {
	var vals []int
	for i := 0; i+1 < len(payload); i += 2 {
		vals = append(vals, int(int16(binary.LittleEndian.Uint16(payload[i:]))))
	}
	req := wire.RouteRequest{
		D: d, G: g, Speaker: speaker, IncludeSchedule: schedule,
		Workload: strings.ToValidUTF8(workload, "?"),
		Tenant:   strings.ToValidUTF8(tenant, "?"),
		Strategy: strings.ToValidUTF8(strategy, "?"),
	}
	if mask&1 != 0 {
		req.Pi = append(req.Pi, vals...)
	}
	if mask&2 != 0 {
		// Batch members of varying length, empty ones included.
		for i, n := 0, 0; i < len(vals); i, n = i+n, n+1 {
			var pi []int
			pi = append(pi, vals[i:min(i+n, len(vals))]...)
			req.Pis = append(req.Pis, pi)
		}
	}
	if mask&4 != 0 {
		for i := 0; i+1 < len(vals); i += 2 {
			req.Requests = append(req.Requests, wire.Request{Src: vals[i], Dst: vals[i+1]})
		}
	}
	if mask&8 != 0 {
		fs := &wire.FaultSet{}
		for i := 0; i+1 < len(vals); i += 3 {
			fs.Couplers = append(fs.Couplers, wire.Coupler{B: vals[i], A: vals[i+1]})
		}
		if mask&16 != 0 {
			fs.Groups = append(fs.Groups, vals...)
		}
		req.Faults = fs
	}
	return req
}
