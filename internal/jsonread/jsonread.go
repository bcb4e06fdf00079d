// Package jsonread reads back the compact JSON that encoding/json's
// Marshal writes, without reflection. A restarted daemon decodes every
// disk entry it replays — LLM reviews (§4.2–§4.3), retry facts
// (§3.1.1), injection runs (§3.1.2) — and through encoding/json that
// was a third of a restart's CPU.
//
// A decoder names an object's members in the encoder's order. Each is
// read if it comes next and left zero otherwise, as json.Unmarshal does
// with an absent member. Nothing else is accepted: no whitespace, no
// reordered, case-variant or unknown member, no value of another kind,
// no invalid UTF-8 or lone surrogate, no number out of range, no
// trailing bytes. So what a Reader accepts, json.Unmarshal accepts as a
// DeepEqual value, and a Reader accepts all that Marshal writes (the
// cache and sast fuzz targets check both). Errors are sticky: after
// the first, nothing advances, and Finish reports it.
package jsonread

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Reader reads one JSON document from a byte slice.
type Reader struct {
	data []byte
	off  int
	err  error
}

// New returns a Reader over data.
func New(data []byte) Reader { return Reader{data: data} }

// Finish returns the first error, or an error if bytes follow the
// document. Call it once the document has been read.
func (r *Reader) Finish() error {
	if r.err == nil && r.off != len(r.data) {
		r.fail("trailing bytes")
	}
	return r.err
}

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("jsonread: %s at offset %d", what, r.off)
	}
}

// word reads w if it comes next.
func (r *Reader) word(w string) bool {
	if r.err != nil || len(r.data)-r.off < len(w) || string(r.data[r.off:r.off+len(w)]) != w {
		return false
	}
	r.off += len(w)
	return true
}

func (r *Reader) expect(w string) {
	if !r.word(w) {
		r.fail("want " + w)
	}
}

// Open reads the '{' that starts the document.
func (r *Reader) Open() { r.expect("{") }

// Close reads the '}' that ends an object.
func (r *Reader) Close() { r.expect("}") }

// field reads `"name":` — after a comma, unless the object has no
// member yet — if it comes next.
func (r *Reader) field(name string) bool {
	start := r.off
	// No value ends in '{', so the byte before the cursor tells whether
	// the object has a member yet.
	if r.err == nil && r.off > 0 && (r.data[r.off-1] == '{' || r.word(",")) && r.word(`"`) && r.word(name) && r.word(`":`) {
		return true
	}
	r.off = start
	return false
}

// Object reads a member that must come next, up to its value's '{';
// Close reads the '}'.
func (r *Reader) Object(name string) {
	if !r.field(name) || !r.word("{") {
		r.fail("want object " + strconv.Quote(name))
	}
}

// Equal reads a string member that must come next and reports whether
// its value is want. An unescaped value is compared in place, without
// allocating.
func (r *Reader) Equal(name, want string) bool {
	if !r.field(name) {
		r.fail("want member " + strconv.Quote(name))
	}
	body, escaped := r.literal()
	if escaped {
		return r.unescape(body) == want && r.err == nil
	}
	return r.err == nil && string(body) == want
}

// String reads a string member into dst.
func (r *Reader) String(name string, dst *string) {
	if r.field(name) {
		*dst = r.str()
	}
}

// Strings reads a member holding an array of strings into dst.
func (r *Reader) Strings(name string, dst *[]string) {
	array(r, name, dst, func(r *Reader, s *string) { *s = r.str() })
}

// Bool reads a boolean member into dst.
func (r *Reader) Bool(name string, dst *bool) {
	if r.field(name) {
		switch {
		case r.word("true"):
			*dst = true
		case !r.word("false"):
			r.fail("want a boolean")
		}
	}
}

// Int reads an integer member into dst. Like json.Unmarshal, it takes
// strconv.ParseInt's syntax and rejects a value out of T's range.
func Int[T int | int64](r *Reader, name string, dst *T) {
	if r.field(name) {
		v, err := strconv.ParseInt(string(r.number()), 10, 64)
		if err != nil || int64(T(v)) != v {
			r.fail("want an integer in range")
		}
		*dst = T(v)
	}
}

// Float reads a numeric member into dst, as json.Unmarshal does:
// through strconv.ParseFloat, rejecting a value out of range.
func (r *Reader) Float(name string, dst *float64) {
	if r.field(name) {
		v, err := strconv.ParseFloat(string(r.number()), 64)
		if err != nil {
			r.fail("number out of range")
		}
		*dst = v
	}
}

// Slice reads a member holding an array of objects into dst; elem reads
// one object's members.
func Slice[T any](r *Reader, name string, dst *[]T, elem func(*Reader, *T)) {
	array(r, name, dst, func(r *Reader, v *T) {
		r.expect("{")
		elem(r, v)
		r.Close()
	})
}

// array reads a member holding an array into dst, each element in
// place: null leaves dst nil, and [] makes it empty, as with
// json.Unmarshal.
func array[T any](r *Reader, name string, dst *[]T, elem func(*Reader, *T)) {
	if !r.field(name) || r.word("null") {
		return
	}
	r.expect("[")
	out := []T{}
	for r.err == nil && !r.word("]") {
		if len(out) > 0 {
			r.expect(",")
		} else {
			out = make([]T, 0, 4)
		}
		out = append(out, *new(T))
		elem(r, &out[len(out)-1])
	}
	*dst = out
}

// number reads a JSON number's literal.
func (r *Reader) number() []byte {
	start := r.off
	r.word("-")
	ok := r.word("0") || r.digits() > 0
	if r.word(".") {
		ok = r.digits() > 0 && ok
	}
	if r.word("e") || r.word("E") {
		if !r.word("+") {
			r.word("-")
		}
		ok = r.digits() > 0 && ok
	}
	if !ok {
		r.fail("want a number")
	}
	return r.data[start:r.off]
}

// digits reads a run of decimal digits and returns its length.
func (r *Reader) digits() int {
	start := r.off
	for r.err == nil && r.off < len(r.data) && '0' <= r.data[r.off] && r.data[r.off] <= '9' {
		r.off++
	}
	return r.off - start
}

// str reads a string value.
func (r *Reader) str() string {
	body, escaped := r.literal()
	if escaped {
		return r.unescape(body)
	}
	return string(body)
}

// literal reads a string literal and returns the bytes between its
// quotes, checked for control bytes and invalid UTF-8, and whether they
// hold an escape (which unescape checks).
func (r *Reader) literal() (body []byte, escaped bool) {
	if !r.word(`"`) {
		r.fail("want a string")
		return nil, false
	}
	for i := r.off; i < len(r.data); i++ {
		switch c := r.data[i]; {
		case c == '"':
			body, r.off = r.data[r.off:i], i+1
			if !utf8.Valid(body) {
				r.fail("invalid UTF-8 in string")
			}
			return body, escaped
		case c == '\\':
			escaped = true
			i++
		case c < ' ':
			r.fail("control byte in string")
			return nil, false
		}
	}
	r.fail("unterminated string")
	return nil, false
}

// unescape decodes a string body that holds escapes. literal has paired
// every backslash with the byte after it. A \u escape of a surrogate
// must pair with the next one: json.Unmarshal reads a lone surrogate as
// U+FFFD, and Marshal never writes one.
func (r *Reader) unescape(body []byte) string {
	buf := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		if body[i] != '\\' {
			buf = append(buf, body[i])
			continue
		}
		i++
		if k := strings.IndexByte(`"\/bfnrt`, body[i]); k >= 0 {
			buf = append(buf, "\"\\/\b\f\n\r\t"[k])
			continue
		}
		rn := rune(-1)
		if body[i] == 'u' {
			rn = hex4(body[i+1:])
			i += 4
		}
		if utf16.IsSurrogate(rn) {
			lo := rune(-1)
			if i+2 < len(body) && body[i+1] == '\\' && body[i+2] == 'u' {
				lo = hex4(body[i+3:])
				i += 6
			}
			if rn = utf16.DecodeRune(rn, lo); rn == utf8.RuneError {
				rn = -1
			}
		}
		if rn < 0 {
			r.fail("invalid escape")
			return ""
		}
		buf = utf8.AppendRune(buf, rn)
	}
	return string(buf)
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}
