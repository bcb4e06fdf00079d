package server

// view_test.go pins the bytes of a finished job's bodies: the done view
// is rendered once by writing the report into the view
// (renderDoneView) and must equal what writeJSON would have encoded,
// and GET /v1/reports/{app} marshals a retained section on demand.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/report"
)

// writeJSONBody is the done view as writeJSON encodes it.
func writeJSONBody(t *testing.T, v jobView) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	writeJSON(rec, 200, v)
	return rec.Body.Bytes()
}

func TestRenderDoneViewMatchesWriteJSON(t *testing.T) {
	golden, err := os.ReadFile("../report/testdata/report_HD.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	goldenDoc := new(report.Document)
	if err := json.Unmarshal(golden, goldenDoc); err != nil {
		t.Fatal(err)
	}
	cr, err := core.New(core.DefaultOptions()).RunCorpus(corpus.Apps())
	if err != nil {
		t.Fatal(err)
	}
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
	}
	for name, doc := range map[string]*report.Document{"golden-HD": goldenDoc, "seed-corpus": report.Build(cr), "escaped": escaped} {
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if name == "golden-HD" {
			raw = golden
		}
		for _, v := range views {
			got, err := renderDoneView(v, doc)
			if err != nil {
				t.Fatal(err)
			}
			v.Report = raw
			if want := writeJSONBody(t, v); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: rendered view differs from writeJSON\ngot:\n%s\nwant:\n%s", name, v.ID, got, want)
			}
			if len(got) != cap(got) {
				t.Fatalf("%s/%s: view has len %d but cap %d; the job table retains it", name, v.ID, len(got), cap(got))
			}
		}
	}
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
