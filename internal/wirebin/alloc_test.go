package wirebin

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pops/internal/core"
	"pops/internal/popsnet"
	"pops/internal/wire"
)

// replayReader re-serves the same byte slice forever, resetting on EOF, so a
// decode loop can run an unbounded number of iterations over one frame
// without per-iteration reader churn.
type replayReader struct {
	data []byte
	pos  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		r.pos = 0
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// allocBudgetSlot is a representative whole-slot record: 16 sends and 16
// recvs, the shape a d=16 backend streams on the hot path.
func allocBudgetSlot() wire.StreamSlot {
	s := wire.StreamSlot{Slot: 12, Color: -1, Offset: 0, Final: true}
	for i := 0; i < 16; i++ {
		s.Sends = append(s.Sends, popsnet.Send{Src: i * 17, DestGroup: i % 8, Packet: i * 31})
		s.Recvs = append(s.Recvs, popsnet.Recv{Proc: i * 13, SrcGroup: (i + 3) % 8})
	}
	return s
}

// TestWireEncodeAllocBudget is the wire-path half of `make alloc-guard`: a
// steady-state slot record must encode and decode with zero allocations per
// operation, mirroring the factorizer arena budget on the library side.
func TestWireEncodeAllocBudget(t *testing.T) {
	slot := allocBudgetSlot()
	e := GetEncoder()
	defer PutEncoder(e)
	// Warm the encoder buffer once; steady state reuses it.
	frame := append([]byte(nil), e.AppendSlot(&slot)...)

	if got := testing.AllocsPerRun(200, func() {
		e.AppendSlot(&slot)
	}); got != 0 {
		t.Errorf("AppendSlot: %v allocs/op, want 0", got)
	}

	d := NewDecoder(&replayReader{data: frame})
	var out wire.StreamSlot
	// Warm the decoder buffer and the decode-into slices.
	typ, payload, err := d.ReadFrame()
	if err != nil || typ != FrameSlot {
		t.Fatalf("warm ReadFrame: typ=%d err=%v", typ, err)
	}
	if err := DecodeSlot(payload, &out); err != nil {
		t.Fatalf("warm DecodeSlot: %v", err)
	}

	if got := testing.AllocsPerRun(200, func() {
		typ, payload, err := d.ReadFrame()
		if err != nil || typ != FrameSlot {
			panic(fmt.Sprintf("ReadFrame: typ=%d err=%v", typ, err))
		}
		if err := DecodeSlot(payload, &out); err != nil {
			panic(err)
		}
	}); got != 0 {
		t.Errorf("ReadFrame+DecodeSlot: %v allocs/op, want 0", got)
	}
}

// TestReframerAllocBudget keeps the proxy relay path on the same zero
// steady-state budget: relaying a frame must not allocate once the buffer is
// warm.
func TestReframerAllocBudget(t *testing.T) {
	slot := allocBudgetSlot()
	e := GetEncoder()
	defer PutEncoder(e)
	frame := append([]byte(nil), e.AppendSlot(&slot)...)

	rf := NewReframer(&replayReader{data: frame})
	if _, err := rf.Next(); err != nil {
		t.Fatalf("warm Next: %v", err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := rf.Next(); err != nil {
			panic(err)
		}
	}); got != 0 {
		t.Errorf("Reframer.Next: %v allocs/op, want 0", got)
	}
}

// TestDecodeHostileCountBounded pins the decoder's allocation bound against
// hostile element counts: a count that fits the frame at one byte per
// element, but not at the element's minimum encoded size, must fail as
// corrupt without allocating for the count. Presizing from such a count
// would claim about 8x the frame (a 64 MiB frame: about 1.5 GB of sends).
func TestDecodeHostileCountBounded(t *testing.T) {
	const body = 1 << 20
	zeros := make([]byte, body)
	// A slot frame whose sends count claims one send per remaining byte.
	slot := binary.AppendUvarint([]byte{0, 0, 0, 0}, body) // slot, color, offset, flags
	slot = append(slot, zeros...)
	// A response whose plan schedule claims one slot per remaining byte.
	resp := []byte{16, 64, 0, 1, flagSchedule, 0, 0, 0, 0, 0, 0, 0, 16, 64}
	resp = binary.AppendUvarint(resp, body)
	resp = append(resp, zeros...)
	for name, decode := range map[string]func() error{
		"slot sends":     func() error { var s wire.StreamSlot; return DecodeSlot(slot, &s) },
		"schedule slots": func() error { var r wire.RouteResponse; return DecodeResponse(resp, &r) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(10, func() {
			if err := decode(); !errors.Is(err, ErrCorruptFrame) {
				panic(fmt.Sprintf("%s: hostile count decoded as %v, want ErrCorruptFrame", name, err))
			}
		})
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / 11
		if allocs > 16 || perOp > 4<<10 {
			t.Errorf("%s: hostile count cost %v allocs and %d B per decode, want ≤ 16 allocs and ≤ 4 KiB", name, allocs, perOp)
		}
	}
}

// TestDecodeResponseAllocBudget pins the client's unary decode of a
// POPS(16,64) include_schedule response at its exact allocation count: the
// plans slice, the three non-empty strings, the schedule and its slot slice,
// and one sends plus one recvs slice per slot, each allocated once at the
// size the frame announces — no append growth.
func TestDecodeResponseAllocBudget(t *testing.T) {
	const d, g = 16, 64
	pi := rand.New(rand.NewSource(7)).Perm(d * g)
	plan, err := core.PlanRoute(d, g, pi, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := plan.Schedule()
	resp := wire.RouteResponse{D: d, G: g, RequestID: "0123456789abcdef", Plans: []wire.PlanResult{{
		Strategy: "theorem2", Slots: plan.SlotCount(), Rounds: plan.Rounds,
		Fingerprint: "00112233445566778899", Schedule: sched,
	}}}
	e := GetEncoder()
	defer PutEncoder(e)
	frame := e.AppendResponse(&resp)
	_, payload, err := NewDecoder(bytes.NewReader(frame)).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sched.Slots {
		if len(s.Sends) == 0 || len(s.Recvs) == 0 {
			t.Fatalf("slot %d has %d sends and %d recvs; the budget counts both", i, len(s.Sends), len(s.Recvs))
		}
	}
	want := float64(1 + 3 + 2 + 2*len(sched.Slots))
	var out wire.RouteResponse
	if got := testing.AllocsPerRun(50, func() {
		if err := DecodeResponse(payload, &out); err != nil {
			panic(err)
		}
	}); got != want {
		t.Errorf("DecodeResponse of a POPS(%d,%d) schedule: %v allocs/op, want %v", d, g, got, want)
	}
	if !reflect.DeepEqual(out.Plans[0].Schedule, sched) {
		t.Error("decoded schedule differs from the encoded one")
	}
}
