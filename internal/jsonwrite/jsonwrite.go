// Package jsonwrite writes JSON in exactly the indented layout
// json.MarshalIndent(v, prefix, "  ") produces, one value at a time and
// without reflection. The daemon renders the canonical report (§4's
// evaluation artifacts) and its job views on every job a commit
// triggers, and through encoding/json that was the largest share of a
// warm job's CPU. It is the write-side twin of internal/jsonread.
//
// Callers name members in the order of the struct they mirror and
// write omitempty members only when set; the report and server tests
// compare every document against encoding/json byte for byte.
package jsonwrite

import (
	"encoding/json"
	"math"
	"strconv"
)

// Writer holds the layout of the value being written; the bytes are
// threaded through its methods as a []byte argument and result, as
// strconv's Append functions do. The slice header so stays in the
// caller's registers and stack: no append stores a pointer into the
// heap, and none takes a write barrier. Every line after the first is
// indented two spaces per level, empty objects and arrays render
// compactly as {} and [], and the zero Writer writes at depth 0.
type Writer struct {
	level int
	// empty is true while the innermost open object or array has no
	// member yet.
	empty bool
}

// At returns a Writer whose lines are indented depth levels more, as
// json.MarshalIndent does with a prefix of depth × "  ": a value
// written at depth 1 can be copied into an enclosing indented value.
func At(depth int) Writer { return Writer{level: depth} }

// newlines is a newline followed by the indent of the deepest level
// written as one slice; deeper levels are rare and written in parts.
const newlines = "\n                                                                "

func (w *Writer) newline(b []byte) []byte {
	if n := 1 + 2*w.level; n <= len(newlines) {
		return append(b, newlines[:n]...)
	}
	b = append(b, newlines...)
	for i := (len(newlines) - 1) / 2; i < w.level; i++ {
		b = append(b, "  "...)
	}
	return b
}

// Open starts an object ('{') or an array ('[').
func (w *Writer) Open(b []byte, c byte) []byte {
	w.level++
	w.empty = true
	return append(b, c)
}

// Close ends the innermost object ('}') or array (']').
func (w *Writer) Close(b []byte, c byte) []byte {
	w.level--
	if !w.empty {
		b = w.newline(b)
	}
	w.empty = false
	return append(b, c)
}

// Elem starts the next array element.
func (w *Writer) Elem(b []byte) []byte {
	if !w.empty {
		b = append(b, ',')
	}
	w.empty = false
	return w.newline(b)
}

// Key starts the next object member; name needs no escaping.
func (w *Writer) Key(b []byte, name string) []byte {
	b = append(w.Elem(b), '"')
	b = append(b, name...)
	return append(b, `": `...)
}

// plain marks the bytes a JSON string may hold as they are: printable
// ASCII but for the quote, the backslash and the HTML characters
// encoding/json escapes.
var plain = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendString appends s as a JSON string. A string of plain bytes is
// copied as is; any other goes through json.Marshal, which escapes
// quotes, backslashes, HTML characters, control characters and
// U+2028/U+2029 and replaces invalid UTF-8.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendFloat appends f the way encoding/json does: shortest
// representation, exponent form only outside [1e-6, 1e21), with a
// one-digit negative exponent written without its leading zero. f must
// be finite, which encoding/json requires too.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// List appends s as an array, or null when s is nil, writing each
// element with each.
func List[T any](b []byte, w *Writer, s []T, each func([]byte, *Writer, *T) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = w.Open(b, '[')
	for i := range s {
		b = each(w.Elem(b), w, &s[i])
	}
	return w.Close(b, ']')
}

// Strings appends s as an array of strings, or null when s is nil.
func Strings(b []byte, w *Writer, s []string) []byte {
	return List(b, w, s, func(b []byte, _ *Writer, s *string) []byte { return AppendString(b, *s) })
}
