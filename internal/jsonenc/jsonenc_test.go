package jsonenc

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestNonFiniteWritesNothing pins what a client sees when a reply holds a
// value with no JSON form (no aggregate produces one): encoding/json's
// error, and not a byte of the reply on the wire.
func TestNonFiniteWritesNothing(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		var out bytes.Buffer
		e := NewEncoder(&out)
		e.Raw(`{"ok":true,"value":`)
		e.Float(f)
		e.Raw("}\n")
		e.Chunk()
		err := e.Flush()
		_, want := json.Marshal(f)
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) || err.Error() != want.Error() {
			t.Errorf("Float(%v): Flush() = %v, want %v", f, err, want)
		}
		if out.Len() != 0 || e.Written() != 0 {
			t.Errorf("Float(%v): %d bytes reached the writer", f, out.Len())
		}
	}
}

// TestChunkBoundsBuffer: with a writer, Chunk passes text on once a chunk
// has gathered and Flush passes the rest, in order.
func TestChunkBoundsBuffer(t *testing.T) {
	var out bytes.Buffer
	e := NewEncoder(&out)
	var want strings.Builder
	for i := range 50_000 {
		e.Int(int64(i))
		e.Raw(",")
		e.Chunk()
		if len(e.Buf) >= ChunkSize {
			t.Fatalf("buffer holds %d bytes after Chunk", len(e.Buf))
		}
		want.WriteString(strconv.Itoa(i) + ",")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Fatalf("chunked output differs: %d bytes, want %d", out.Len(), want.Len())
	}
	if e.Written() != int64(out.Len()) {
		t.Fatalf("Written() = %d, wrote %d", e.Written(), out.Len())
	}
	var whole Encoder
	whole.Raw("[1,2]")
	whole.Chunk()
	if string(whole.Buf) != "[1,2]" || whole.Flush() != nil {
		t.Fatalf("an encoder without a writer must keep its text, has %q", whole.Buf)
	}
}
