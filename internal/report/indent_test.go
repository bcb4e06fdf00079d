package report

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/core"
)

// marshalIndentRef is the reference AppendIndent must equal byte for
// byte: encoding/json at the same depth.
func marshalIndentRef(t testing.TB, v any, depth int) []byte {
	t.Helper()
	data, err := json.MarshalIndent(v, strings.Repeat("  ", depth), "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkAgainstRef asserts AppendIndent at depths 0 and 1, and MarshalApp
// for every app, equal encoding/json's bytes.
func checkAgainstRef(t *testing.T, doc *Document) {
	t.Helper()
	for depth := 0; depth <= 1; depth++ {
		prefix := []byte("prefix ")
		got := AppendIndent(prefix, doc, depth)
		if want := marshalIndentRef(t, doc, depth); !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("depth %d: AppendIndent differs from json.MarshalIndent\ngot:\n%s\nwant:\n%s", depth, got, want)
		}
	}
	for _, app := range doc.Apps {
		got, err := MarshalApp(app)
		if err != nil {
			t.Fatal(err)
		}
		want := marshalIndentRef(t, struct {
			Schema string `json:"schema"`
			App    App    `json:"app"`
		}{Schema: Schema, App: app}, 0)
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("MarshalApp differs from json.MarshalIndent\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
}

// everyFieldDocument sets every field of every report type to a
// non-zero value, with strings that take both the plain and the escaped
// path.
func everyFieldDocument() *Document {
	bug := Bug{Workflow: "dynamic", Kind: "missing-cap", Coordinator: "a.B.retry", Details: "x <y> & z"}
	return &Document{
		Schema: Schema,
		Apps: []App{{
			Code: "HD", Name: "HDFS é ",
			Structures: []Structure{{Coordinator: "a.B.retry", File: "b.go", Mechanism: "loop", ByCodeQL: true, ByLLM: true, Triplets: 3}},
			Bugs:       []Bug{bug, {Workflow: "static-llm", Kind: "how", Coordinator: "c\"d\\", Details: "tab\there"}},
			Coverage: Coverage{TestsTotal: 1, TestsCoveringRetry: 2, StructuresTotal: 3, StructuresTested: 4,
				PlanEntries: 5, PlannedRuns: 6, NaiveRuns: 7, RunsFailed: 8},
			TruncatedFiles: []string{"big.go", "bad\xffutf8.go"},
			DegradedFiles:  []DegradedFile{{File: "c.go", Reason: "breaker open"}},
		}},
		IFRatios: []Ratio{{Exception: "IOException", Retried: 3, Total: 4}},
		IFBugs:   []Bug{bug},
		Usage:    Usage{Calls: 9, TokensIn: 1 << 40, CostUSD: 8.125},
		Degraded: true,
	}
}

// assertNoZeroFields fails on any zero-valued field reachable from v, so
// a field added to a report type must be added to everyFieldDocument,
// and through it to the encoder.
func assertNoZeroFields(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	if v.IsZero() {
		t.Fatalf("%s is zero: give it a value in everyFieldDocument and an encoding in indent.go", path)
	}
	switch v.Kind() {
	case reflect.Pointer:
		assertNoZeroFields(t, v.Elem(), path)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			assertNoZeroFields(t, v.Index(i), path+"[]")
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertNoZeroFields(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	}
}

func TestAppendIndentEveryField(t *testing.T) {
	doc := everyFieldDocument()
	assertNoZeroFields(t, reflect.ValueOf(doc), "Document")
	checkAgainstRef(t, doc)
}

// TestAppendIndentEmptyAndNil covers null against [] and the omitted
// omitempty fields.
func TestAppendIndentEmptyAndNil(t *testing.T) {
	checkAgainstRef(t, &Document{})
	checkAgainstRef(t, &Document{Apps: []App{{}}, IFRatios: []Ratio{}, IFBugs: []Bug{}})
	checkAgainstRef(t, &Document{Apps: []App{{Structures: []Structure{}, Bugs: []Bug{}, TruncatedFiles: []string{}, DegradedFiles: []DegradedFile{}}}})
}

func TestAppendIndentSeedCorpus(t *testing.T) {
	checkAgainstRef(t, seedCorpusDocument(t))
}

func TestMarshalRejectsNonFiniteCost(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Marshal(&Document{Usage: Usage{CostUSD: c}}); err == nil {
			t.Fatalf("cost %v: Marshal succeeded, want an error as json.Marshal gives", c)
		}
	}
}

// TestMarshalAllocs: marshalling the seed-corpus document allocates its
// result and, when the scratch pool comes back empty (the race detector
// drops pooled buffers at random), the regrown scratch buffer — never an
// object per field or string.
func TestMarshalAllocs(t *testing.T) {
	doc := seedCorpusDocument(t)
	strs := 0
	for _, a := range doc.Apps {
		strs += 2 + 3*len(a.Structures) + 4*len(a.Bugs)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := Marshal(doc); err != nil {
			t.Fatal(err)
		}
	})
	if n > 24 {
		t.Fatalf("Marshal allocates %v objects for a document of %d strings, want at most 24", n, strs)
	}
}

// shaped returns nil, an empty slice or full, as bits bit and bit+8 of
// shape select.
func shaped[T any](shape uint16, bit uint, full []T) []T {
	switch {
	case shape&(1<<bit) == 0:
		return nil
	case shape&(1<<(bit+8)) == 0:
		return full[:0]
	}
	return full
}

// FuzzAppendIndent checks the encoder against encoding/json on
// documents built from arbitrary strings, integers and costs, with nil,
// empty and non-empty slices and the omitempty fields in every
// combination.
func FuzzAppendIndent(f *testing.F) {
	f.Add("wasabi-report/v1", "a <b> & c", int64(3), 0.036, uint16(0))
	f.Add("\xff\xfe", "\x00\x01\n\t\x7f", int64(-1), 1e-7, uint16(0xffff))
	f.Add("\u2028\u2029", "é\"\\", int64(math.MaxInt64), 1e21, uint16(0x00ff))
	f.Add("", "", int64(0), math.Copysign(0, -1), uint16(0xaaaa))
	f.Add("x", "y", int64(math.MinInt64), 5e-324, uint16(0x5555))
	f.Add("x", "y", int64(7), 123456789.125, uint16(0x0ff0))
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, cost float64, shape uint16) {
		if math.IsNaN(cost) || math.IsInf(cost, 0) {
			t.Skip("json.Marshal rejects non-finite numbers; TestMarshalRejectsNonFiniteCost covers Marshal")
		}
		bug := Bug{Workflow: s1, Kind: s2, Coordinator: s2 + s1, Details: s1 + "\n" + s2}
		app := App{
			Code: s1, Name: s2,
			Structures:     shaped(shape, 1, []Structure{{Coordinator: s1, File: s2, Mechanism: s1, ByCodeQL: n%2 == 0, ByLLM: n%3 == 0, Triplets: int(n)}}),
			Bugs:           shaped(shape, 2, []Bug{bug, bug}),
			Coverage:       Coverage{TestsTotal: int(n), RunsFailed: int(n >> 1), NaiveRuns: int(^n)},
			TruncatedFiles: shaped(shape, 3, []string{s2, s1}),
			DegradedFiles:  shaped(shape, 4, []DegradedFile{{File: s1, Reason: s2}}),
		}
		checkAgainstRef(t, &Document{
			Schema:   s1,
			Apps:     shaped(shape, 0, []App{app, {Code: s2}}),
			IFRatios: shaped(shape, 5, []Ratio{{Exception: s2, Retried: int(n), Total: int(n) * 2}}),
			IFBugs:   shaped(shape, 6, []Bug{bug}),
			Usage:    Usage{Calls: int(n), TokensIn: n, CostUSD: cost},
			Degraded: shape&(1<<7) != 0,
		})
	})
}

// seedCorpusDocument is the report of the full seed corpus, the
// document a warm-corpus daemon job renders.
func seedCorpusDocument(tb testing.TB) *Document {
	tb.Helper()
	cr, err := core.New(core.DefaultOptions()).RunCorpus(corpus.Apps())
	if err != nil {
		tb.Fatal(err)
	}
	return Build(cr)
}

// BenchmarkReportMarshal measures rendering the seed-corpus report, the
// per-job encoding cost of a warm daemon.
func BenchmarkReportMarshal(b *testing.B) {
	doc := seedCorpusDocument(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := Marshal(doc)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}
