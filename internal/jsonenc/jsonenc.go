// Package jsonenc writes JSON text append-style, byte for byte as
// encoding/json writes it with its default HTML escaping: the same string
// escapes (`<`, `>`, `&`, U+2028, U+2029, control characters, invalid UTF-8
// as \ufffd) and the same float formatting (shortest round-trip digits,
// exponent notation below 1e-6 and from 1e21 up). The reply types of the
// query layer and the server encode themselves through it instead of
// reflecting through nested MarshalJSON methods.
package jsonenc

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// ChunkSize is the amount of encoded text an Encoder with a writer holds
// before Chunk hands it on.
const ChunkSize = 64 << 10

// Encoder accumulates JSON text in Buf. Without a writer it keeps the
// whole document, as MarshalJSON needs. With one, Chunk hands Buf to the
// writer once it holds ChunkSize bytes, so a document of any length is
// held one chunk at a time, in one buffer reused across documents.
type Encoder struct {
	Buf []byte

	w       io.Writer
	written int64
	err     error
}

// NewEncoder returns an encoder that writes to w in chunks.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{Buf: make([]byte, 0, 2*ChunkSize), w: w}
}

// Err reports the first encoding or write error. After it, nothing more
// reaches the writer.
func (e *Encoder) Err() error { return e.err }

// Written reports the bytes handed to the writer so far.
func (e *Encoder) Written() int64 { return e.written }

// Chunk hands Buf on when a writer is attached and Buf holds at least
// ChunkSize bytes. Callers place it between array elements, where a
// partial document may safely leave.
func (e *Encoder) Chunk() {
	if len(e.Buf) >= ChunkSize && e.w != nil {
		e.write()
	}
}

// Flush hands whatever Buf holds to the writer and reports the first
// error.
func (e *Encoder) Flush() error {
	if e.w != nil && len(e.Buf) > 0 {
		e.write()
	}
	return e.err
}

func (e *Encoder) write() {
	if e.err == nil {
		var n int
		n, e.err = e.w.Write(e.Buf)
		e.written += int64(n)
	}
	e.Buf = e.Buf[:0]
}

// Raw appends s verbatim; s must already be JSON text.
func (e *Encoder) Raw(s string) { e.Buf = append(e.Buf, s...) }

// Int appends v as a JSON number.
func (e *Encoder) Int(v int64) { e.Buf = strconv.AppendInt(e.Buf, v, 10) }

// Float appends f as encoding/json writes a float64. A NaN or an infinity
// has no JSON form: it records encoding/json's error and appends nothing.
func (e *Encoder) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.Buf, f, format, -1, 64)
	if format == 'e' {
		// encoding/json shortens a two-digit negative exponent: e-07 → e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	e.Buf = b
}

const hex = "0123456789abcdef"

// String appends s as a quoted JSON string.
func (e *Encoder) String(s string) {
	b := append(e.Buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.Buf = append(b, '"')
}
