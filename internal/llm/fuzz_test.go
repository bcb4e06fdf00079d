package llm

import (
	"bytes"
	"encoding/json"
	"math/big"
	"reflect"
	"testing"
	"time"
)

// -llm-backends is the one routing flag, and a sim backend's profile is
// written in the fault-profile grammar inside it, so these two grammars
// are the whole parser surface at the flag boundary. Both fuzz
// targets check the same two properties: the parser never panics, and
// any spec it accepts renders to a string that parses back to the same
// rendering. The seeds are the grammar and error cases of the unit
// tests, and run under plain go test.

func FuzzParseBackends(f *testing.F) {
	for _, seed := range []string{
		"primary=sim:outage; secondary=sim;edge=http:http://127.0.0.1:8081",
		"primary=sim",
		"primary=sim:outage;secondary=sim",
		"primary=http:http://127.0.0.1:8081;fallback=sim",
		"a=sim:light;b=sim:heavy,malformed=25",
		"sim=sim:none",
		"", ";;", "sim", "=sim", "bad name=sim", "a=sim;a=sim",
		"a=ftp:x", "a=http", "a=sim:bogus-profile",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		specs, err := ParseBackends(spec)
		if err != nil {
			return
		}
		rendered := backendsString(specs)
		again, err := ParseBackends(rendered)
		if err != nil {
			t.Fatalf("ParseBackends(%q) accepted, but its rendering %q does not parse: %v", spec, rendered, err)
		}
		if got := backendsString(again); got != rendered {
			t.Fatalf("ParseBackends(%q): rendering %q re-renders as %q", spec, rendered, got)
		}
	})
}

func FuzzParseFaultProfile(f *testing.F) {
	for _, seed := range []string{
		"", "none", "light", "heavy", "outage",
		"timeout=10,malformed=50",
		"heavy,outage-after=120",
		"outage-after=5,light",
		"ratelimit=9, servererror=8",
		"bogus", "timeout", "timeout=x", "timeout=-1", "wat=3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaultProfile(spec)
		if err != nil {
			return
		}
		rendered := p.String()
		again, err := ParseFaultProfile(rendered)
		if err != nil {
			t.Fatalf("ParseFaultProfile(%q) accepted, but its rendering %q does not parse: %v", spec, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("ParseFaultProfile(%q): rendering %q re-renders as %q", spec, rendered, got)
		}
	})
}

// FuzzParseRetryAfter fuzzes the Retry-After header at the HTTP
// backend's trust boundary. A hint is never negative, and it is exactly
// the header's seconds whenever those fit in a time.Duration; anything
// else, an overflow included, is no hint. The oracle is computed in
// big.Int arithmetic, independent of the parser.
func FuzzParseRetryAfter(f *testing.F) {
	for _, seed := range []string{
		"", "0", "1", "7", "120", "-3", "+5", "soon", " 5", "1e3",
		"Wed, 21 Oct 2015 07:28:00 GMT",
		"9223372036", "9223372037", "18446744074", "99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		got := parseRetryAfter(v)
		if got < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, want no negative hint", v, got)
		}
		var want time.Duration
		if secs, ok := new(big.Int).SetString(v, 10); ok && secs.Sign() > 0 {
			if d := secs.Mul(secs, big.NewInt(int64(time.Second))); d.IsInt64() {
				want = time.Duration(d.Int64())
			}
		}
		if got != want {
			t.Fatalf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	})
}

// FuzzDecodeCompletion fuzzes the completion-body decoder at the HTTP
// backend's trust boundary: no input panics, an accepted body carries a
// choice, and its re-encoding decodes to the same completion and
// re-encodes to the same bytes.
func FuzzDecodeCompletion(f *testing.F) {
	for _, seed := range []string{
		`{"choices":[{"message":{"role":"assistant","content":"ok"}}]}`,
		`{"choices":[{}]}`, `{"choices":[]}`, `{"choices":null}`, `{}`,
		`null`, `[]`, `not json{`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := decodeCompletion(raw)
		if err != nil {
			return
		}
		if len(c.Choices) == 0 {
			t.Fatalf("accepted a completion with no choice: %q", raw)
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		again, err := decodeCompletion(enc)
		if err != nil {
			t.Fatalf("re-encoding %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("re-decoded completion differs:\n%+v\n%+v", c, again)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}
