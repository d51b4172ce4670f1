package wirebin

import (
	"encoding/json"
	"fmt"
	"io"

	"pops/internal/wire"
)

// Codec is the wire codec of one /route or /route/stream body: JSON (JSON
// unary bodies, NDJSON stream records) or Binary (frames). A server picks
// the response codec once per call with Negotiate, a client or relay reads
// it off the answer with FromContentType, and every encode, decode and relay
// step goes through the one value — callers never branch on the format.
type Codec uint8

const (
	// JSON is the default, curl-debuggable codec: one JSON value per unary
	// body, one NDJSON line per stream record, exactly as encoding/json's
	// Encoder writes them.
	JSON Codec = iota
	// Binary is the length-prefixed frame codec of this package.
	Binary
)

// Negotiate picks the response codec an Accept header asks for: Binary only
// when it names ContentType (Accepts), JSON otherwise.
func Negotiate(accept string) Codec {
	if Accepts(accept) {
		return Binary
	}
	return JSON
}

// FromContentType names the codec of a body by its Content-Type: Binary for
// ContentType, JSON for anything else.
func FromContentType(ct string) Codec {
	if IsContentType(ct) {
		return Binary
	}
	return JSON
}

// ContentType is the media type of c's unary bodies, or of its streams when
// stream is set.
func (c Codec) ContentType(stream bool) string {
	switch {
	case c == Binary:
		return ContentType
	case stream:
		return "application/x-ndjson"
	default:
		return "application/json"
	}
}

// AppendRequest appends req to dst as one request body.
func (c Codec) AppendRequest(dst []byte, req *wire.RouteRequest) ([]byte, error) {
	if c == JSON {
		return appendJSON(dst, req)
	}
	e := GetEncoder()
	defer PutEncoder(e)
	return append(dst, e.AppendRequest(req)...), nil
}

// AppendResponse appends resp to dst as one unary response body.
func (c Codec) AppendResponse(dst []byte, resp *wire.RouteResponse) ([]byte, error) {
	if c == JSON {
		return appendJSON(dst, resp)
	}
	e := GetEncoder()
	defer PutEncoder(e)
	return append(dst, e.AppendResponse(resp)...), nil
}

// AppendRecord appends one stream record to dst: an NDJSON line, or the
// frame of the record's type. A record of unknown type encodes as an error
// frame carrying its Error text.
func (c Codec) AppendRecord(dst []byte, rec *wire.StreamRecord) ([]byte, error) {
	if c == JSON {
		cp := *rec // a copy escapes to encoding/json, so rec stays put on the binary path
		return appendJSON(dst, &cp)
	}
	e := GetEncoder()
	defer PutEncoder(e)
	switch rec.Type {
	case "meta":
		return append(dst, e.AppendMeta(rec.Meta)...), nil
	case "slot":
		return append(dst, e.AppendSlot(rec.Slot)...), nil
	case "done":
		return append(dst, e.AppendDone(rec.Done)...), nil
	default:
		return append(dst, e.AppendError(rec.Error)...), nil
	}
}

// appendJSON appends json.Encoder's output for v — the value and a newline,
// byte-identical to what the JSON surface has always written — to dst,
// encoding through a pooled Encoder's scratch buffer.
func appendJSON(dst []byte, v any) ([]byte, error) {
	e := GetEncoder()
	defer PutEncoder(e)
	if e.json == nil {
		e.json = json.NewEncoder(&e.jsonBuf)
	}
	e.jsonBuf.Reset()
	if err := e.json.Encode(v); err != nil {
		return dst, err
	}
	return append(dst, e.jsonBuf.Bytes()...), nil
}

// ReadResponse reads one unary response body from r into resp.
func (c Codec) ReadResponse(r io.Reader, resp *wire.RouteResponse) error {
	if c == JSON {
		return json.NewDecoder(r).Decode(resp)
	}
	d := GetDecoder(r)
	defer PutDecoder(d)
	typ, payload, err := d.ReadFrame()
	if err != nil {
		return err
	}
	if typ != FrameResponse {
		return fmt.Errorf("%w: frame type %d, want response", ErrCorruptFrame, typ)
	}
	return DecodeResponse(payload, resp)
}

// RecordReader decodes one stream's records in one codec. Close returns its
// pooled buffers.
type RecordReader struct {
	json *json.Decoder
	bin  *Decoder
}

// NewRecordReader returns a RecordReader over the stream r, which speaks c.
func (c Codec) NewRecordReader(r io.Reader) *RecordReader {
	if c == Binary {
		return &RecordReader{bin: GetDecoder(r)}
	}
	return &RecordReader{json: json.NewDecoder(r)}
}

// Next overwrites rec with the stream's next record. Every payload is
// decoded into fresh memory, so callers may keep records across calls.
// io.EOF is returned untouched at a clean record boundary.
func (rr *RecordReader) Next(rec *wire.StreamRecord) error {
	*rec = wire.StreamRecord{}
	if rr.json != nil {
		return rr.json.Decode(rec)
	}
	typ, payload, err := rr.bin.ReadFrame()
	if err != nil {
		return err
	}
	switch typ {
	case FrameMeta:
		rec.Type, rec.Meta = "meta", new(wire.StreamMeta)
		return DecodeMeta(payload, rec.Meta)
	case FrameSlot:
		rec.Type, rec.Slot = "slot", new(wire.StreamSlot)
		return DecodeSlot(payload, rec.Slot)
	case FrameDone:
		rec.Type, rec.Done = "done", new(wire.StreamDone)
		return DecodeDone(payload, rec.Done)
	case FrameError:
		rec.Type = "error"
		rec.Error, err = DecodeError(payload)
		return err
	default:
		return fmt.Errorf("%w: unexpected stream frame type %d", ErrCorruptFrame, typ)
	}
}

// Close returns the reader's pooled buffers (idempotent). The underlying
// stream is the caller's to close.
func (rr *RecordReader) Close() {
	if rr.bin != nil {
		PutDecoder(rr.bin)
		rr.bin = nil
	}
}

// NewRelay returns a Reframer that splits the stream r, which speaks c, into
// whole records without decoding them: NDJSON lines or binary frames.
func (c Codec) NewRelay(r io.Reader) *Reframer {
	f := NewReframer(r)
	f.lines = c == JSON
	return f
}
