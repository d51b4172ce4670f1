package wirebin

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// TestRelaySplitsNDJSONLines pins the JSON half of the relay reader: whole
// lines come back one per Next however the bytes arrive, a clean end is
// io.EOF, and a line cut off by the end of the stream is truncation — never
// relayed as a record.
func TestRelaySplitsNDJSONLines(t *testing.T) {
	lines := []string{`{"type":"meta"}` + "\n", `{"type":"slot","slot":{"slot":0}}` + "\n"}
	for name, tail := range map[string]string{"clean end": "", "cut line": `{"type":"sl`} {
		relay := JSON.NewRelay(iotest{data: []byte(strings.Join(lines, "") + tail)}.reader())
		for i, want := range lines {
			got, err := relay.Next()
			if err != nil || string(got) != want {
				t.Fatalf("%s: record %d = %q, %v; want %q", name, i, got, err, want)
			}
		}
		_, err := relay.Next()
		if tail == "" && err != io.EOF {
			t.Errorf("%s: after the last line: %v, want io.EOF", name, err)
		}
		if tail != "" && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: partial line: %v, want io.ErrUnexpectedEOF", name, err)
		}
	}
}
