package jsonwrite

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAppendStringEveryByte puts every byte value at every offset of a
// string and compares the result with json.Marshal.
func TestAppendStringEveryByte(t *testing.T) {
	base := []byte("abcdefghijklmnopq")
	for c := 0; c < 256; c++ {
		for i := range base {
			s := bytes.Clone(base)
			s[i] = byte(c)
			want, err := json.Marshal(string(s))
			if err != nil {
				t.Fatal(err)
			}
			if got := AppendString(nil, string(s)); !bytes.Equal(got, want) {
				t.Fatalf("byte %#x at %d: got %s, want %s", c, i, got, want)
			}
		}
	}
}

// TestDeepNesting writes arrays nested beyond the depth one slice of
// newlines indents, at a prefix depth, against json.MarshalIndent.
func TestDeepNesting(t *testing.T) {
	var v any = []any{"x"}
	for i := 0; i < 40; i++ {
		v = []any{v, true}
	}
	var write func(b []byte, w *Writer, v any) []byte
	write = func(b []byte, w *Writer, v any) []byte {
		switch v := v.(type) {
		case []any:
			return List(b, w, v, func(b []byte, w *Writer, e *any) []byte { return write(b, w, *e) })
		case string:
			return AppendString(b, v)
		default:
			return append(b, "true"...)
		}
	}
	for depth := 0; depth <= 1; depth++ {
		w := At(depth)
		got := write(nil, &w, v)
		want, err := json.MarshalIndent(v, strings.Repeat("  ", depth), "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("depth %d: got\n%s\nwant\n%s", depth, got, want)
		}
	}
}

// TestAppendFloat compares the float forms against json.Marshal around
// the exponent-form thresholds.
func TestAppendFloat(t *testing.T) {
	for _, f := range []float64{0, -0.0, 1, -2.5, 0.036, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300, 5e-324, 123456789.125} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("%v: got %s, want %s", f, got, want)
		}
	}
}
