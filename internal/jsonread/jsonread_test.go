package jsonread

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// sample exercises every reader: an always-written member of each kind,
// omitempty members, a nested object and an array of objects.
type sample struct {
	S     string   `json:"s"`
	I     int      `json:"i,omitempty"`
	I64   int64    `json:"i64"`
	F     float64  `json:"f"`
	B     bool     `json:"b,omitempty"`
	SS    []string `json:"ss"`
	Inner inner    `json:"inner"`
	Objs  []inner  `json:"objs,omitempty"`
}

type inner struct {
	Name string   `json:"name"`
	Tags []string `json:"tags,omitempty"`
}

func readSample(data []byte) (sample, error) {
	var v sample
	r := New(data)
	r.Open()
	r.String("s", &v.S)
	Int(&r, "i", &v.I)
	Int(&r, "i64", &v.I64)
	r.Float("f", &v.F)
	r.Bool("b", &v.B)
	r.Strings("ss", &v.SS)
	r.Object("inner")
	readInner(&r, &v.Inner)
	r.Close()
	Slice(&r, "objs", &v.Objs, readInner)
	r.Close()
	return v, r.Finish()
}

func readInner(r *Reader, in *inner) {
	r.String("name", &in.Name)
	r.Strings("tags", &in.Tags)
}

// TestReadMatchesUnmarshal checks the package's two properties over
// hand-picked documents: whatever Marshal writes is read back as the
// value, and every accepted document decodes as json.Unmarshal decodes
// it. The rejected ones are valid JSON that Marshal never writes, or
// values json.Unmarshal refuses too.
func TestReadMatchesUnmarshal(t *testing.T) {
	values := []sample{
		{},
		{S: "plain", I: -7, I64: math.MinInt64, F: 1e21, B: true, SS: []string{}, Inner: inner{Name: "n", Tags: []string{"a"}}},
		{S: "\"\\<>&\u2028\u2029\x00\x1f\b\f\n\r\té😀\ufffd", I64: math.MaxInt64, F: 5e-324, SS: []string{"", "x"}},
		{S: "bad \xff utf8", F: -0.1, Objs: []inner{{}, {Name: "o", Tags: []string{"t"}}}},
		{F: math.MaxFloat64, I: math.MaxInt},
	}
	for _, v := range values {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := readSample(data)
		if err != nil {
			t.Fatalf("%s: %v", data, err)
		}
		var want sample
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nread      %+v\nunmarshal %+v", data, got, want)
		}
	}

	base := `"s":"x","i64":1,"f":2,"ss":null,"inner":{"name":"n"}`
	accepted := []string{
		`{` + base + `}`,
		`{"i64":1,"f":2,"ss":null,"inner":{}}`,
		`{"s":"\ud83d\ude00\u00e9\/\u0041","i64":-0,"f":-0.5e-3,"ss":[],"inner":{"name":"","tags":null},"objs":[]}`,
		`{"s":"\uFFFD","i64":0,"f":1E+2,"inner":{"tags":["\""]},"objs":[{},{"name":"a"}]}`,
		`{"s":"","f":123456789012345678901234567890,"inner":{}}`,
		`{"b":false,"inner":{}}`,
	}
	for _, in := range accepted {
		got, err := readSample([]byte(in))
		if err != nil {
			t.Fatalf("%s rejected: %v", in, err)
		}
		var want sample
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\nread      %+v\nunmarshal %+v", in, got, want)
		}
	}

	rejected := []string{
		``,
		`{` + base + `} `,
		`{` + base + `}x`,
		` {` + base + `}`,
		`{ "s":"x","inner":{}}`,
		`{"s" :"x","inner":{}}`,
		`{"i64":1,"s":"x","inner":{}}`,
		`{"S":"x","inner":{}}`,
		`{"s":"x","extra":1,"inner":{}}`,
		`{"s":"x","s":"y","inner":{}}`,
		`{,"s":"x","inner":{}}`,
		`{"s":"x",,"i64":1,"inner":{}}`,
		`{"s":null,"inner":{}}`,
		`{"s":1,"inner":{}}`,
		`{"i64":"1","inner":{}}`,
		`{"i64":01,"inner":{}}`,
		`{"i64":1.0,"inner":{}}`,
		`{"i64":1e2,"inner":{}}`,
		`{"i64":9223372036854775808,"inner":{}}`,
		`{"i64":-9223372036854775809,"inner":{}}`,
		`{"i64":+1,"inner":{}}`,
		`{"i64":-,"inner":{}}`,
		`{"f":1e400,"inner":{}}`,
		`{"f":.5,"inner":{}}`,
		`{"f":5.,"inner":{}}`,
		`{"f":1e,"inner":{}}`,
		`{"f":NaN,"inner":{}}`,
		`{"f":0x10,"inner":{}}`,
		`{"b":1,"inner":{}}`,
		`{"b":tru,"inner":{}}`,
		`{"b":null,"inner":{}}`,
		`{"ss":[,"a"],"inner":{}}`,
		`{"ss":["a",],"inner":{}}`,
		`{"ss":["a" ,"b"],"inner":{}}`,
		`{"ss":["a"}`,
		`{"ss":{},"inner":{}}`,
		`{"inner":null}`,
		`{"s":"x"}`,
		`{"inner":{}`,
		`{"inner":{},"objs":[null]}`,
		`{"inner":{},"objs":[{"name":"a"},]}`,
		"{\"s\":\"tab\there\",\"inner\":{}}",
		"{\"s\":\"\xff\",\"inner\":{}}",
		"{\"s\":\"\xed\xa0\x80\",\"inner\":{}}",
		`{"s":"\ud800","inner":{}}`,
		`{"s":"\ude00\ud83d","inner":{}}`,
		`{"s":"\ud83d\u0041","inner":{}}`,
		`{"s":"\ud83d\\ude00","inner":{}}`,
		`{"s":"\u12","inner":{}}`,
		`{"s":"\u12g4","inner":{}}`,
		`{"s":"\x","inner":{}}`,
		`{"s":"\'","inner":{}}`,
		`{"s":"unterminated`,
		`{"s":"\`,
		`{"s":"\"`,
	}
	for _, in := range rejected {
		if v, err := readSample([]byte(in)); err == nil {
			t.Errorf("%q accepted as %+v", in, v)
		}
	}
}

// TestEqual compares in place where it can and decodes escapes where
// it must; a missing member or a malformed string is never equal.
func TestEqual(t *testing.T) {
	cases := []struct {
		in, want string
		equal    bool
	}{
		{`{"k":"abc"}`, "abc", true},
		{`{"k":"abc"}`, "abd", false},
		{`{"k":"a\"b\u003c"}`, `a"b<`, true},
		{`{"k":""}`, "", true},
		{`{"k":"\q"}`, "", false},
		{`{"j":""}`, "", false},
		{`{"k":1}`, "", false},
	}
	for _, tc := range cases {
		r := New([]byte(tc.in))
		r.Open()
		if got := r.Equal("k", tc.want); got != tc.equal {
			t.Errorf("Equal(%s, %q) = %v, want %v (err %v)", tc.in, tc.want, got, tc.equal, r.Finish())
		}
	}
}

// TestReadAllocations pins the point of Equal and of reading members
// into place: a document without strings to keep allocates nothing.
func TestReadAllocations(t *testing.T) {
	data := []byte(`{"schema":"wasabi/v1","key":"0123456789abcdef","n":12345,"f":0.25,"ok":true}`)
	allocs := testing.AllocsPerRun(100, func() {
		var n int
		var f float64
		var ok bool
		r := New(data)
		r.Open()
		r.Equal("schema", "wasabi/v1")
		r.Equal("key", "0123456789abcdef")
		Int(&r, "n", &n)
		r.Float("f", &f)
		r.Bool("ok", &ok)
		r.Close()
		if err := r.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reading allocated %v times, want 0", allocs)
	}
}
