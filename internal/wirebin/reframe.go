package wirebin

import (
	"bufio"
	"fmt"
	"io"
)

// Reframer splits a raw stream into complete records without decoding
// their fields, for relays (the cluster proxy) that forward each record
// verbatim as its own flush: binary frames (NewReframer) or NDJSON lines
// (Codec.NewRelay on JSON). Records may span the underlying reader's
// delivery boundaries arbitrarily (HTTP chunk boundaries included); Next
// blocks until the record in flight is whole, buffering only that one
// record, never the plan.
type Reframer struct {
	br    *bufio.Reader
	buf   []byte
	lines bool // NDJSON: records end at '\n'
}

// NewReframer returns a Reframer splitting the binary frames read from r.
func NewReframer(r io.Reader) *Reframer {
	return &Reframer{br: bufio.NewReaderSize(r, 4096)}
}

// Next returns the next complete frame, length prefix included, aliasing the
// Reframer's buffer (valid until the next call). io.EOF is returned at a
// clean frame boundary; a stream truncated mid-frame — a backend dying with
// half a record on the wire — fails with an ErrCorruptFrame-tagged error so
// the relay never forwards a partial frame.
func (f *Reframer) Next() ([]byte, error) {
	if f.lines {
		return f.nextLine()
	}
	// Read the uvarint length prefix byte by byte, keeping the raw bytes so
	// the frame can be relayed exactly as it arrived.
	f.buf = f.buf[:0]
	var n uint64
	var shift uint
	for {
		b, err := f.br.ReadByte()
		if err != nil {
			if err == io.EOF && len(f.buf) == 0 {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("%w: truncated length prefix: %v", ErrCorruptFrame, err)
		}
		f.buf = append(f.buf, b)
		n |= uint64(b&0x7f) << shift
		shift += 7
		if b < 0x80 {
			break
		}
		if shift > 35 {
			return nil, fmt.Errorf("%w: length prefix overflows", ErrCorruptFrame)
		}
	}
	if n < 2 || n > MaxFrame {
		return nil, fmt.Errorf("%w: payload length %d out of range", ErrCorruptFrame, n)
	}
	prefix := len(f.buf)
	total := prefix + int(n)
	if cap(f.buf) < total {
		grown := make([]byte, total)
		copy(grown, f.buf)
		f.buf = grown[:prefix]
	}
	f.buf = f.buf[:total]
	if _, err := io.ReadFull(f.br, f.buf[prefix:]); err != nil {
		return nil, fmt.Errorf("%w: truncated payload (%d bytes promised): %v", ErrCorruptFrame, n, err)
	}
	if f.buf[prefix] != Version {
		return nil, fmt.Errorf("%w: unknown frame version %d (this codec speaks %d)", ErrCorruptFrame, f.buf[prefix], Version)
	}
	return f.buf, nil
}

// nextLine is Next over NDJSON: one whole line, newline included. A line cut
// off by the end of the stream is truncation, like a partial frame, and so is
// a line longer than MaxFrame.
func (f *Reframer) nextLine() ([]byte, error) {
	f.buf = f.buf[:0]
	for {
		chunk, err := f.br.ReadSlice('\n')
		f.buf = append(f.buf, chunk...)
		switch {
		case err == bufio.ErrBufferFull && len(f.buf) <= MaxFrame:
			continue
		case err == io.EOF && len(f.buf) == 0:
			return nil, io.EOF
		case err == io.EOF:
			return nil, fmt.Errorf("truncated record: %w", io.ErrUnexpectedEOF)
		case err == bufio.ErrBufferFull:
			return nil, fmt.Errorf("record longer than %d bytes", MaxFrame)
		case err != nil:
			return nil, err
		}
		return f.buf, nil
	}
}
