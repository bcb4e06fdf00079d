package server

// view_test.go pins the bytes of a job's bodies: every view is written
// field by field (writeView, and renderDoneHead with the report's body
// for a done view) and must equal what writeJSON would have encoded,
// and GET /v1/reports/{app} marshals a retained section on demand.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/report"
	"wasabi/internal/source"
)

// writeJSONBody is the view as writeJSON encodes it:
// json.MarshalIndent(v, "", "  ") and a newline.
func writeJSONBody(t testing.TB, v jobView) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, v)
	return rec.Body.Bytes()
}

// checkView asserts that v renders, as writeView writes it for every
// state and as renderDoneHead and each of bodies write it done, to
// writeJSON's bytes. raw is the report as the reference nests it, and
// bodies are its bodies as a done job renders them (doneBody, or
// report.Body as the daemon serves them).
func checkView(t testing.TB, v jobView, raw []byte, bodies ...[]byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeView(rec, 200, &v)
	if want := writeJSONBody(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s view differs from writeJSON\ngot:\n%s\nwant:\n%s", v.State, rec.Body.Bytes(), want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s view: Content-Type = %q", v.State, ct)
	}
	if len(bodies) == 0 {
		return
	}
	head, err := renderDoneHead(&v)
	if err != nil {
		t.Fatal(err)
	}
	if len(head) != cap(head) {
		t.Fatalf("done view head has len %d but cap %d; the job table retains it", len(head), cap(head))
	}
	v.Report = raw
	want := writeJSONBody(t, v)
	for i, body := range bodies {
		if got := append(append([]byte(nil), head...), body...); !bytes.Equal(got, want) {
			t.Fatalf("done view with body %d differs from writeJSON\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// doneBody is doc's body in a done view, rendered without a memo.
func doneBody(t testing.TB, doc *report.Document) []byte {
	t.Helper()
	body, err := report.Render(nil, doc, 1, doneViewTail)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// servedBodies runs the seed corpus over one snapshot store and cache,
// as the daemon does, and returns its document and the bodies
// report.Body serves it with: a cold job's, a warm job's, kept with
// the document and served again to the next, and a job's after a job
// over some of its apps replaced the document kept for its first app.
func servedBodies(t testing.TB) (*report.Document, [][]byte) {
	t.Helper()
	ca, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Cache = ca
	opts.Source = source.NewStore(nil)
	run := func(apps []corpus.App) (*report.Document, []byte) {
		cr, err := core.New(opts).RunCorpus(apps)
		if err != nil {
			t.Fatal(err)
		}
		doc := report.Build(cr)
		body, err := report.Body(cr, doc, 1, doneViewTail)
		if err != nil {
			t.Fatal(err)
		}
		return doc, body
	}
	// The cold job merges its reviews of its own; the first warm job
	// merges the cache's entries, and the next one reuses its body.
	doc, cold := run(corpus.Apps())
	_, warm := run(corpus.Apps())
	if _, again := run(corpus.Apps()); &again[0] != &warm[0] {
		t.Fatal("a warm job over unchanged apps rendered its body again")
	}
	run(corpus.Apps()[:3])
	_, after := run(corpus.Apps())
	return doc, [][]byte{cold, warm, after}
}

// TestRenderDoneViewMatchesWriteJSON: every view the daemon writes —
// queued, running, failed with an error, done — is json.MarshalIndent's
// bytes and a newline.
func TestRenderDoneViewMatchesWriteJSON(t *testing.T) {
	golden, err := os.ReadFile("../report/testdata/report_HD.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	goldenDoc := new(report.Document)
	if err := json.Unmarshal(golden, goldenDoc); err != nil {
		t.Fatal(err)
	}
	seedDoc, served := servedBodies(t)
	// Empty slices render as [] and stay compact; <, > and & inside
	// strings are HTML-escaped by both encoders.
	escaped := &report.Document{
		Schema:   report.Schema,
		Apps:     []report.App{{Code: "X<&>", Name: "a <b> & c", Structures: []report.Structure{}, Bugs: []report.Bug{{Details: "<&> "}}}},
		IFRatios: []report.Ratio{},
		IFBugs:   []report.Bug{},
	}
	views := []jobView{
		{ID: "job-1", State: "done", Tenant: "shared", TraceID: "0123456789abcdef", Apps: []string{"HD"}, Build: cache.BuildID(),
			FreshLLM: &freshUsage{Calls: 3, TokensIn: 1200, CostUSD: 0.036}},
		{ID: "job-2", State: "done", Tenant: "t<&>", TraceID: "trace-unavailable", Build: "",
			FreshLLM: &freshUsage{}},
		{ID: "job-3", State: "done", Tenant: "t", TraceID: "x", Apps: []string{}, Build: "b",
			FreshLLM: &freshUsage{CostUSD: 1e-7}},
	}
	for name, doc := range map[string]*report.Document{"golden-HD": goldenDoc, "seed-corpus": seedDoc, "escaped": escaped} {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		bodies := [][]byte{doneBody(t, doc)}
		switch name {
		case "golden-HD":
			raw = golden
		case "seed-corpus":
			bodies = append(bodies, served...)
		}
		for _, v := range views {
			checkView(t, v, raw, bodies...)
		}
	}
	for _, v := range []jobView{
		{ID: "job-4", State: "queued", Tenant: "shared", TraceID: "0123456789abcdef", Apps: []string{"HD", "HB"}, Build: cache.BuildID()},
		{ID: "job-5", State: "running", Tenant: "alpha", TraceID: "trace-unavailable", Build: cache.BuildID()},
		{ID: "job-6", State: "failed", Tenant: "t\u2028<", TraceID: "x", Apps: []string{"G001"}, Build: "",
			Error: "app HD: source: open /x/\"y\".go: no such file or directory"},
	} {
		checkView(t, v, nil)
	}
}

// TestRenderDoneViewRejectsNonFiniteCost: a fresh cost json.Marshal
// cannot encode fails the view, as it failed encoding/json.
func TestRenderDoneViewRejectsNonFiniteCost(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := jobView{ID: "job-1", State: "done", FreshLLM: &freshUsage{CostUSD: c}}
		if _, err := json.MarshalIndent(v, "", "  "); err == nil {
			t.Fatalf("cost %v: json.MarshalIndent succeeded", c)
		}
		if _, err := renderDoneHead(&v); err == nil {
			t.Fatalf("cost %v: renderDoneHead succeeded, want an error as json.MarshalIndent gives", c)
		}
	}
}

// FuzzJobView checks the view writers against encoding/json over the
// tenant, the app codes and the error text: the tenant and the codes
// arrive in the request, and an error can quote either.
func FuzzJobView(f *testing.F) {
	f.Add("shared", "HD", "", uint8(0))
	f.Add(`t"q\`, "<HB>", "a <b> & c", uint8(1))
	f.Add("\u2028\u2029", "é", "\x00\x1f\n\t\x7f", uint8(2))
	f.Add("\xff\xfe", "\xc3", "bad \xed\xa0\x80 utf-8", uint8(3))
	f.Add("", "", "", uint8(4))
	doc := &report.Document{Schema: report.Schema, Apps: []report.App{{Code: "HD"}}, IFRatios: []report.Ratio{}, IFBugs: []report.Bug{}}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	body := doneBody(f, doc)
	f.Fuzz(func(t *testing.T, tenant, code, errText string, shape uint8) {
		v := jobView{ID: "job-1", State: "queued", Tenant: tenant, TraceID: tenant + code, Error: errText, Build: code}
		switch shape % 3 {
		case 1:
			v.Apps = []string{}
		case 2:
			v.Apps = []string{code, tenant, errText}
		}
		if shape&4 != 0 {
			v.State = "failed"
		}
		checkView(t, v, nil)
		v.State, v.Error = "done", ""
		v.FreshLLM = &freshUsage{Calls: len(tenant), TokensIn: int64(len(errText)) << 40, CostUSD: float64(len(code)) / 3}
		checkView(t, v, raw, body)
	})
}

// TestDoneViewAndAppReportsServed: a finished job's view is the bytes
// writeJSON would encode for its decoded fields, and every app section
// GET /v1/reports/{app} serves is MarshalApp of that job's section.
func TestDoneViewAndAppReportsServed(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", SchedulerSlots: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	if rec := do(s, "POST", "/v1/analyze", `{"apps":["HD","HB"]}`); rec.Code != 202 {
		t.Fatalf("submit = %d, want 202", rec.Code)
	}
	awaitJob(t, s, "job-1")
	rec := do(s, "GET", "/v1/jobs/job-1", "")
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if want := writeJSONBody(t, v); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("done view differs from writeJSON\ngot:\n%s\nwant:\n%s", rec.Body.Bytes(), want)
	}
	var doc report.Document
	if err := json.Unmarshal(v.Report, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Apps) != 2 {
		t.Fatalf("report apps = %d, want 2", len(doc.Apps))
	}
	for _, app := range doc.Apps {
		want, err := report.MarshalApp(app)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			rec := do(s, "GET", "/v1/reports/"+app.Code, "")
			if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("GET /v1/reports/%s (read %d): status %d, body differs from MarshalApp\ngot:\n%s\nwant:\n%s",
					app.Code, i, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}
}
