package cache_test

// decode_test.go fuzzes and benchmarks the disk tier's three decoders
// against encoding/json. The seeds and the benchmark inputs are the
// entries of a cold run over the seed corpus, so these tests live in
// package cache_test: they drive internal/core, which imports
// internal/cache.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/llm"
	"wasabi/internal/oracle"
	"wasabi/internal/sast"
)

// entry is one disk-tier file: its key (the file name) and bytes.
type entry struct {
	key  string
	data []byte
}

// coldEntries are a cold seed-corpus run's disk entries by stage: the
// facts and review of every seed-corpus file, and every seed app's
// dynamic run.
var coldEntries = sync.OnceValues(func() (map[string][]entry, error) {
	dir, err := os.MkdirTemp("", "wasabi-cold-entries-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ca, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Cache = ca
	if _, err := core.New(opts).RunCorpus(corpus.Apps()); err != nil {
		return nil, err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]entry)
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		stage := cache.StageFacts
		if bytes.HasPrefix(data, []byte(`{"schema":"`+cache.EnvelopeSchema)) {
			stage = cache.StageReview
		} else if bytes.HasPrefix(data, []byte(`{"schema":"`+cache.DynamicSchema)) {
			stage = cache.StageDynamic
		}
		out[stage] = append(out[stage], entry{strings.TrimSuffix(f.Name(), ".json"), data})
	}
	return out, nil
})

// seedEntries returns coldEntries' entries of one stage, and fails
// unless the run wrote some.
func seedEntries(tb testing.TB, stage string) []entry {
	tb.Helper()
	entries, err := coldEntries()
	if err != nil {
		tb.Fatal(err)
	}
	if len(entries[stage]) == 0 {
		tb.Fatalf("the cold run wrote no %s entries", stage)
	}
	return entries[stage]
}

// factsHash is the content hash a facts entry claims, which its reader
// must be asked for.
func factsHash(tb testing.TB, data []byte) string {
	var ff sast.FileFacts
	if err := json.Unmarshal(data, &ff); err != nil {
		tb.Fatal(err)
	}
	return ff.Hash
}

// TestDecodedEntriesOwnTheirBytes decodes every entry of a cold run's
// disk tier from one reused buffer, as the disk tier's pooled reads do:
// each facts, review and dynamic value must stay equal to a decode of
// its own pristine copy after the buffer has been overwritten by every
// later entry.
func TestDecodedEntriesOwnTheirBytes(t *testing.T) {
	decoders := map[string]func(data []byte, key string) (any, error){
		cache.StageFacts: func(data []byte, _ string) (any, error) {
			return sast.DecodeFacts(data, factsHash(t, data))
		},
		cache.StageReview:  func(data []byte, key string) (any, error) { return cache.DecodeReview(data, key) },
		cache.StageDynamic: func(data []byte, key string) (any, error) { return cache.DecodeDynamic(data, key) },
	}
	type decoded struct {
		stage string
		e     entry
		v     any
	}
	var buf []byte
	var all []decoded
	for stage, decode := range decoders {
		for _, e := range seedEntries(t, stage) {
			buf = append(buf[:0], e.data...)
			v, err := decode(buf, e.key)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, decoded{stage, e, v})
		}
	}
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = 'x'
	}
	for _, d := range all {
		want, err := decoders[d.stage](bytes.Clone(d.e.data), d.e.key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.v, want) {
			t.Fatalf("%s entry %s changed when its buffer was reused:\ngot  %+v\nwant %+v", d.stage, d.e.key, d.v, want)
		}
	}
}

// FuzzDecodeReview fuzzes the review-envelope decoder at the disk trust
// boundary, differentially: no input may panic; an accepted envelope
// carries this schema and key, fails closed under any other key, and
// decodes under encoding/json to a DeepEqual review; and its
// re-encoding decodes to the same review and re-encodes to the same
// bytes. Seeds are the corruption tests' fixtures and a cold run's
// reviews of every seed-corpus file, and run under plain go test.
func FuzzDecodeReview(f *testing.F) {
	key := cache.ReviewKey("cfg", "/a/r.go", "aaa")
	good, err := cache.EncodeReview(key, cache.ReviewFixture("r.go", 42))
	if err != nil {
		f.Fatal(err)
	}
	degraded, err := cache.EncodeReview(key, llm.FileReview{File: "d.go", Degraded: true, DegradedReason: "outage"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, key)
	f.Add(degraded, key)
	f.Add(good, cache.ReviewKey("cfg", "/a/r.go", "bbb"))
	f.Add(good[:len(good)/2], key)
	f.Add([]byte("{garbage"), key)
	f.Add([]byte(`{"schema":"wasabi-review-cache/v0","key":"`+key+`","review":{}}`), key)
	for _, e := range seedEntries(f, cache.StageReview) {
		f.Add(e.data, e.key)
	}
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		rev, err := cache.DecodeReview(data, key)
		if err != nil {
			return
		}
		var env cache.Envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Schema != cache.EnvelopeSchema || env.Key != key {
			t.Fatalf("accepted envelope schema %q key %q (err %v)", env.Schema, env.Key, err)
		}
		if !reflect.DeepEqual(rev, env.Review) {
			t.Fatalf("decoders differ:\njsonread      %+v\nencoding/json %+v", rev, env.Review)
		}
		if _, err := cache.DecodeReview(data, key+"x"); err == nil {
			t.Fatal("envelope accepted under a different key")
		}
		enc, err := cache.EncodeReview(key, rev)
		if err != nil {
			t.Fatal(err)
		}
		again, err := cache.DecodeReview(enc, key)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(rev, again) {
			t.Fatalf("re-decoded review differs:\n%+v\n%+v", rev, again)
		}
		if enc2, err := cache.EncodeReview(key, again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}

// FuzzDecodeDynamic fuzzes the dynamic-envelope decoder at the disk
// trust boundary, differentially, with FuzzDecodeReview's properties.
// Seeds are the corruption tests' fixtures and a cold run's dynamic
// entry of every seed app, and run under plain go test.
func FuzzDecodeDynamic(f *testing.F) {
	dynKey := func(build string) string {
		return cache.DynamicKey(build, "seed:HB", "HB", cache.DynamicLocs, 1, 100, oracle.DefaultOptions())
	}
	key := dynKey("build")
	good, err := cache.EncodeDynamic(key, cache.DynamicFixture(2))
	if err != nil {
		f.Fatal(err)
	}
	empty, err := cache.EncodeDynamic(key, cache.DynamicRun{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, key)
	f.Add(empty, key)
	f.Add(good, dynKey("other"))
	f.Add(good[:len(good)/2], key)
	f.Add([]byte("{garbage"), key)
	f.Add([]byte(`{"schema":"wasabi-dynamic-cache/v0","key":"`+key+`","run":{}}`), key)
	f.Add([]byte(`{"schema":"wasabi-review-cache/v1","key":"`+key+`","review":{}}`), key)
	for _, e := range seedEntries(f, cache.StageDynamic) {
		f.Add(e.data, e.key)
	}
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		run, err := cache.DecodeDynamic(data, key)
		if err != nil {
			return
		}
		var env cache.DynamicEnvelope
		if err := json.Unmarshal(data, &env); err != nil || env.Schema != cache.DynamicSchema || env.Key != key {
			t.Fatalf("accepted envelope schema %q key %q (err %v)", env.Schema, env.Key, err)
		}
		if !reflect.DeepEqual(run, env.Run) {
			t.Fatalf("decoders differ:\njsonread      %+v\nencoding/json %+v", run, env.Run)
		}
		if _, err := cache.DecodeDynamic(data, key+"x"); err == nil {
			t.Fatal("envelope accepted under a different key")
		}
		enc, err := cache.EncodeDynamic(key, run)
		if err != nil {
			t.Fatal(err)
		}
		again, err := cache.DecodeDynamic(enc, key)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(run, again) {
			t.Fatalf("re-decoded run differs:\n%+v\n%+v", run, again)
		}
		if enc2, err := cache.EncodeDynamic(key, again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point (err %v):\n%s\n%s", err, enc, enc2)
		}
	})
}

// FuzzEntryRoundTrip checks the decoders' completeness on values built
// from the fuzz input (filler): whatever json.Marshal writes for a
// facts entry, a review or a dynamic run, its decoder accepts and
// returns unchanged, but for invalid UTF-8, which the encoder writes as
// U+FFFD. The filler sets every encoded field, so a field added to one
// of these structs without a line in its decoder fails the seeds under
// plain go test.
func FuzzEntryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Add(bytes.Repeat([]byte{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}, 16))
	f.Add([]byte("\x03\xff\xfe\xed\xa0\x80abc\x05\x07\x09\x0b\x0d\x0f\x11\x13\x15\x17\x19\x1b\x1d"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw, want struct {
			Key   string
			Facts sast.FileFacts
			Rev   llm.FileReview
			Run   cache.DynamicRun
		}
		(&filler{data: data}).fill(reflect.ValueOf(&raw).Elem(), false)
		(&filler{data: data}).fill(reflect.ValueOf(&want).Elem(), true)
		raw.Facts.Schema, want.Facts.Schema = sast.FactsSchema, sast.FactsSchema

		enc, err := sast.EncodeFacts(&raw.Facts)
		if err != nil {
			t.Fatal(err)
		}
		if ff, err := sast.DecodeFacts(enc, want.Facts.Hash); err != nil || !reflect.DeepEqual(*ff, want.Facts) {
			t.Fatalf("facts round trip (err %v):\n%s", err, enc)
		}
		if enc, err = cache.EncodeReview(raw.Key, raw.Rev); err != nil {
			t.Fatal(err)
		}
		if rev, err := cache.DecodeReview(enc, want.Key); err != nil || !reflect.DeepEqual(rev, want.Rev) {
			t.Fatalf("review round trip (err %v):\n%s", err, enc)
		}
		if enc, err = cache.EncodeDynamic(raw.Key, raw.Run); err != nil {
			t.Fatal(err)
		}
		if run, err := cache.DecodeDynamic(enc, want.Key); err != nil || !reflect.DeepEqual(run, want.Run) {
			t.Fatalf("dynamic round trip (err %v):\n%s", err, enc)
		}
	})
}

// filler sets values from fuzz bytes, one decision a byte; exhausted
// bytes read as zeros.
type filler struct{ data []byte }

var (
	fillStrings = []string{"", `"`, `\`, "<>&", "  ", "\x00\x01\x1f\x7f", "\b\f\n\r\t",
		"\xff", "\xed\xa0\x80", "\xe2\x82", "é😀�", "/", "wasabi-facts/v1"}
	fillInts   = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1, math.MinInt32, 1e9}
	fillFloats = []float64{0, math.Copysign(0, -1), 1e21, 1e20, 5e-324, math.MaxFloat64,
		math.SmallestNonzeroFloat64 * 3, 0.1, -2.5e-7, 123456.789, 1e-7, 1e-6}
)

func (f *filler) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[0]
	f.data = f.data[1:]
	return b
}

func (f *filler) bits() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = f.next()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// fill sets every field of v that the encoder writes: strings from a
// palette of escapes and bad UTF-8 or from raw bytes, integers and
// floats from palettes of edge values or from raw bits, booleans, and
// slices of up to two elements (none is a nil slice). With valid set,
// every string is the one the encoder writes back: each invalid UTF-8
// byte becomes U+FFFD.
func (f *filler) fill(v reflect.Value, valid bool) {
	switch v.Kind() {
	case reflect.String:
		b := f.next()
		s := fillStrings[int(b>>1)%len(fillStrings)]
		if b&1 == 1 {
			raw := make([]byte, b>>5)
			for i := range raw {
				raw[i] = f.next()
			}
			s = string(raw)
		}
		if valid {
			s = string([]rune(s))
		}
		v.SetString(s)
	case reflect.Bool:
		v.SetBool(f.next()&1 == 1)
	case reflect.Int, reflect.Int64:
		if b := f.next(); b&1 == 0 {
			v.SetInt(fillInts[int(b>>1)%len(fillInts)])
		} else {
			v.SetInt(int64(f.bits()))
		}
	case reflect.Float64:
		x := fillFloats[int(f.next()>>1)%len(fillFloats)]
		if f.next()&1 == 1 {
			if x = math.Float64frombits(f.bits()); math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
		}
		v.SetFloat(x)
	case reflect.Slice:
		if n := int(f.next() % 3); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				f.fill(v.Index(i), valid)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("json") != "-" {
				f.fill(v.Field(i), valid)
			}
		}
	}
}

// BenchmarkDecodeEntries decodes a cold seed-corpus run's disk entries,
// one stage a sub-benchmark: an op decodes every entry of the stage.
// Each "-json" sub-benchmark is the reference: the same entries through
// encoding/json, as the decoders read them before package jsonread.
func BenchmarkDecodeEntries(b *testing.B) {
	decoders := []struct {
		stage string
		hand  func(e entry) error
		json  func(e entry) error
	}{
		{cache.StageFacts,
			func(e entry) error { _, err := sast.DecodeFacts(e.data, e.key); return err },
			func(e entry) error { var v sast.FileFacts; return json.Unmarshal(e.data, &v) }},
		{cache.StageReview,
			func(e entry) error { _, err := cache.DecodeReview(e.data, e.key); return err },
			func(e entry) error { var v cache.Envelope; return json.Unmarshal(e.data, &v) }},
		{cache.StageDynamic,
			func(e entry) error { _, err := cache.DecodeDynamic(e.data, e.key); return err },
			func(e entry) error { var v cache.DynamicEnvelope; return json.Unmarshal(e.data, &v) }},
	}
	for _, d := range decoders {
		entries := seedEntries(b, d.stage)
		if d.stage == cache.StageFacts {
			// DecodeFacts is asked for the content hash, not the key.
			entries = append([]entry(nil), entries...)
			for i := range entries {
				entries[i].key = factsHash(b, entries[i].data)
			}
		}
		for _, variant := range []struct {
			name   string
			decode func(entry) error
		}{{d.stage, d.hand}, {d.stage + "-json", d.json}} {
			b.Run(variant.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, e := range entries {
						if err := variant.decode(e); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
