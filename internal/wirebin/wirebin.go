// Package wirebin is the binary wire codec of the serving stack: a compact,
// length-prefixed framing for the payloads POST /route and POST /route/stream
// otherwise speak as JSON/NDJSON (internal/wire). It exists for one loop —
// the per-slot-record stream encode on the hottest serving path — where
// json.Marshal plus the wire.StreamRecord pointer fields cost allocations and
// time the library side already proved unnecessary (the arena Factorizer).
//
// # Frame layout
//
//	frame   := uvarint(len(payload)) payload
//	payload := version(1 byte) type(1 byte) fields...
//
// The length prefix covers the payload only, so a relay can forward frames
// verbatim without understanding the fields, and a reader can skip frame
// types it does not know. Version is a single byte (currently 1); a decoder
// rejects versions it does not speak, which is the forward-evolution hinge:
// new field layouts bump the version, new record kinds add frame types.
//
// Integer fields are unsigned varints (binary.AppendUvarint); the one field
// that can be negative (a slot fragment's Color, -1 for whole-slot
// fragments) is zigzag-encoded. Strings and byte blobs are uvarint length +
// bytes. Booleans travel in a flags byte.
//
// # Frame types
//
// The stream frames mirror wire.StreamRecord's four record kinds — meta,
// slot, done, error — and two more carry the unary bodies: request
// (wire.RouteRequest) and response (wire.RouteResponse).
//
// # Allocation contract
//
// Encoding is zero-allocation in steady state: an Encoder owns one buffer,
// grown to the high-water mark and reused for every frame; Append* methods
// return a slice aliasing it, valid until the next call. Decoding is
// decode-into-caller-owned-structs: DecodeSlot refills the caller's
// wire.StreamSlot reusing its Sends/Recvs capacity, so a warmed
// ReadFrame+DecodeSlot loop allocates nothing per record (guarded by
// TestWireEncodeAllocBudget under make alloc-guard). Frames with string
// fields (meta, error, request, response) allocate for the strings; they
// occur once per stream or once per call, never per slot record.
//
// # Negotiation
//
// The codec is negotiated end to end via standard content negotiation:
// a client that wants binary responses sends Accept: application/x-pops-bin
// (ContentType); a server that speaks it answers with that Content-Type,
// and one that does not keeps answering JSON/NDJSON — which remains the
// default and the debug surface. Accepts implements the server-side check.
package wirebin

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
)

// ContentType is the negotiated media type of the binary codec, offered by
// clients in Accept and announced by servers in Content-Type. JSON and
// NDJSON remain the default wire format; binary is strictly opt-in.
const ContentType = "application/x-pops-bin"

// Version is the frame version this package encodes. Decoders reject any
// other value, so layout changes can never be misparsed as the old layout.
const Version = 1

// Frame types. The stream types mirror wire.StreamRecord's kinds; request
// and response carry the unary /route bodies.
const (
	FrameMeta     byte = 1
	FrameSlot     byte = 2
	FrameDone     byte = 3
	FrameError    byte = 4
	FrameRequest  byte = 5
	FrameResponse byte = 6
)

// MaxFrame bounds a single frame's payload, mirroring MaxRequestBody: a
// length prefix past it is corruption (or an attack), not a plan.
const MaxFrame = 64 << 20

// MaxRequestBody bounds a /route or /route/stream request body on every
// HTTP surface, backend and proxy alike: the largest sensible request is a
// batch of large permutations, far under this.
const MaxRequestBody = 64 << 20

// ErrCorruptFrame tags every malformed-input failure of the decoder —
// truncated payloads, over-long length prefixes, unknown versions, counts
// that exceed the remaining bytes. errors.Is(err, ErrCorruptFrame) holds for
// all of them, so callers surface one typed verdict instead of string
// matching.
var ErrCorruptFrame = errors.New("wirebin: corrupt frame")

// Accepts reports whether an Accept header value asks for the binary codec:
// some media range names ContentType with a nonzero quality. An empty or
// unknown Accept keeps the JSON/NDJSON default — exactly the behavior old
// clients get without changing a byte.
func Accepts(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaRange, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(mediaRange), ContentType) {
			continue
		}
		if q, ok := qualityParam(params); ok && q == 0 {
			return false // explicitly refused: "application/x-pops-bin;q=0"
		}
		return true
	}
	return false
}

// qualityParam extracts a q= parameter from a media range's parameter list.
func qualityParam(params string) (q float64, ok bool) {
	for _, p := range strings.Split(params, ";") {
		k, v, found := strings.Cut(strings.TrimSpace(p), "=")
		if !found || !strings.EqualFold(strings.TrimSpace(k), "q") {
			continue
		}
		var val float64
		if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f", &val); err == nil {
			return val, true
		}
	}
	return 0, false
}

// IsContentType reports whether a Content-Type header value names the binary
// codec (ignoring parameters).
func IsContentType(ct string) bool {
	mediaType, _, _ := strings.Cut(ct, ";")
	return strings.EqualFold(strings.TrimSpace(mediaType), ContentType)
}

// lenReserve is the room reserved at the front of an encoder's buffer for
// the frame's uvarint length prefix (a MaxFrame payload needs 4 bytes; 5
// covers any uint32).
const lenReserve = 5

// Encoder builds frames into one reusable buffer. The slice returned by an
// Append* method aliases that buffer and is valid until the next call.
// An Encoder is not safe for concurrent use; pool them with GetEncoder /
// PutEncoder (one per stream or per response write).
type Encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder checks an Encoder out of the package pool.
func GetEncoder() *Encoder { return encoderPool.Get().(*Encoder) }

// PutEncoder returns an Encoder to the pool. The caller must be done with
// every slice an Append* method returned.
func PutEncoder(e *Encoder) { encoderPool.Put(e) }

// begin resets the buffer to the reserved length prefix plus the version and
// type bytes.
func (e *Encoder) begin(typ byte) {
	if cap(e.buf) < lenReserve+2 {
		e.buf = make([]byte, lenReserve, 256)
	} else {
		e.buf = e.buf[:lenReserve]
	}
	e.buf = append(e.buf, Version, typ)
}

// finish writes the length prefix immediately before the payload and returns
// the completed frame.
func (e *Encoder) finish() []byte {
	payload := len(e.buf) - lenReserve
	var tmp [lenReserve]byte
	n := binary.PutUvarint(tmp[:], uint64(payload))
	start := lenReserve - n
	copy(e.buf[start:lenReserve], tmp[:n])
	return e.buf[start:]
}

func (e *Encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *Encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *Encoder) byteVal(b byte)   { e.buf = append(e.buf, b) }
func (e *Encoder) str(s string)     { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *Encoder) ints(vals []int) {
	e.uvarint(uint64(len(vals)))
	for _, v := range vals {
		e.varint(int64(v))
	}
}

// Decoder reads frames off an io.Reader, buffering reads and reassembling
// frames that span arbitrary read boundaries (HTTP chunk boundaries
// included — a frame's bytes may arrive in any number of pieces). The
// payload returned by ReadFrame aliases the Decoder's internal buffer and is
// valid until the next ReadFrame. Not safe for concurrent use; pool with
// GetDecoder / PutDecoder.
type Decoder struct {
	br  *bufio.Reader
	buf []byte
}

var decoderPool = sync.Pool{New: func() any { return &Decoder{br: bufio.NewReaderSize(nil, 4096)} }}

// GetDecoder checks a Decoder out of the package pool and points it at r.
func GetDecoder(r io.Reader) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.br.Reset(r)
	return d
}

// PutDecoder returns a Decoder to the pool. The caller must be done with the
// last payload ReadFrame returned.
func PutDecoder(d *Decoder) {
	d.br.Reset(nil)
	decoderPool.Put(d)
}

// NewDecoder returns an unpooled Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, 4096)}
}

// Reset points the Decoder at a new reader, keeping its buffers.
func (d *Decoder) Reset(r io.Reader) { d.br.Reset(r) }

// ReadFrame reads one complete frame and returns its type and payload (the
// bytes after the version and type bytes, aliasing the Decoder's buffer).
// io.EOF is returned untouched at a clean frame boundary; a frame truncated
// mid-way decodes as an ErrCorruptFrame-tagged error, never a silent short
// read.
func (d *Decoder) ReadFrame() (typ byte, payload []byte, err error) {
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: length prefix: %v", ErrCorruptFrame, err)
	}
	if n < 2 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: payload length %d out of range", ErrCorruptFrame, n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.br, d.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload (%d bytes promised): %v", ErrCorruptFrame, n, err)
	}
	if d.buf[0] != Version {
		return 0, nil, fmt.Errorf("%w: unknown frame version %d (this codec speaks %d)", ErrCorruptFrame, d.buf[0], Version)
	}
	return d.buf[1], d.buf[2:], nil
}

// reader is a cursor over one frame payload. All its take* methods fail with
// ErrCorruptFrame-tagged errors by setting err sticky, so decode functions
// check once at the end.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorruptFrame}, args...)...)
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a uvarint element count and sanity-checks it against the bytes
// that could possibly hold it (at least one byte per element), so a corrupt
// count can never drive a huge allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)) {
		r.fail("count %d exceeds remaining %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

func (r *reader) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.b[0]
	r.b = r.b[1:]
	return b
}

func (r *reader) str() string {
	if r.err != nil {
		return ""
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)) {
		r.fail("string length %d exceeds remaining %d bytes", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *reader) ints() []int {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.varint())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// done asserts the payload was consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after payload", ErrCorruptFrame, len(r.b))
	}
	return nil
}
