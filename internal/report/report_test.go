package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/core"
	"wasabi/internal/oracle"
	"wasabi/internal/sast"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenDocument pins the canonical JSON document for one app,
// byte for byte. Any schema or ordering drift shows up as a golden
// diff; regenerate deliberately with `go test ./internal/report
// -run Golden -update` and bump Schema when fields change.
func TestGoldenDocument(t *testing.T) {
	app, err := corpus.ByCode("HD")
	if err != nil {
		t.Fatal(err)
	}
	w := core.New(core.DefaultOptions())
	cr, err := w.RunCorpus([]corpus.App{app})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(Build(cr))
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "report_HD.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("document drifted from golden file %s (regenerate with -update if intended)\ngot %d bytes, want %d", golden, len(got), len(want))
	}

	var doc Document
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("document does not round-trip: %v", err)
	}
	if doc.Schema != Schema {
		t.Fatalf("schema = %q, want %q", doc.Schema, Schema)
	}
	if len(doc.Apps) != 1 || doc.Apps[0].Code != "HD" {
		t.Fatalf("apps = %+v", doc.Apps)
	}
	if doc.Usage.TokensIn == 0 {
		t.Fatal("attributed usage missing from document")
	}
}

// TestDocumentStableAcrossWorkers marshals the same corpus at different
// worker counts and asserts identical bytes — the determinism the
// service's cache contract builds on.
func TestDocumentStableAcrossWorkers(t *testing.T) {
	app, err := corpus.ByCode("HB")
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(workers int) []byte {
		opts := core.DefaultOptions()
		opts.Workers = workers
		cr, err := core.New(opts).RunCorpus([]corpus.App{app})
		if err != nil {
			t.Fatal(err)
		}
		data, err := Marshal(Build(cr))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(marshal(1), marshal(4)) {
		t.Fatal("document bytes vary with worker count")
	}
}

// TestMarshalApp pins the single-app wrapper the service's
// /v1/reports/{app} endpoint serves.
func TestMarshalApp(t *testing.T) {
	app, err := corpus.ByCode("HD")
	if err != nil {
		t.Fatal(err)
	}
	cr, err := core.New(core.DefaultOptions()).RunCorpus([]corpus.App{app})
	if err != nil {
		t.Fatal(err)
	}
	doc := Build(cr)
	data, err := MarshalApp(doc.Apps[0])
	if err != nil {
		t.Fatal(err)
	}
	var wrapped struct {
		Schema string `json:"schema"`
		App    App    `json:"app"`
	}
	if err := json.Unmarshal(data, &wrapped); err != nil {
		t.Fatal(err)
	}
	if wrapped.Schema != Schema || wrapped.App.Code != "HD" {
		t.Fatalf("wrapper = %q / %q", wrapped.Schema, wrapped.App.Code)
	}
}

// TestIFBugsDetails: an IF finding's details read "<exception> <verb>
// (<ratio>)" with the ratio as sast.ExceptionRatio.String renders it,
// for both verbs.
func TestIFBugsDetails(t *testing.T) {
	ratio := sast.ExceptionRatio{Exception: "IOException", Retried: 17, Total: 20}
	reports := []sast.IFReport{
		{Exception: "IOException", Coordinator: "a.B.run", Retried: false, Ratio: ratio},
		{Exception: "Illegal<&>", Coordinator: "c.D.loop", Retried: true, Ratio: sast.ExceptionRatio{Exception: "Illegal<&>", Retried: 1, Total: 12345}},
	}
	verbs := []string{"never retried here though usually retried", "retried here though usually not"}
	bugs := IFBugs(reports)
	for i, r := range reports {
		want := Bug{Workflow: "static-if", Kind: "wrong-policy", Coordinator: r.Coordinator,
			Details: fmt.Sprintf("%s %s (%s)", r.Exception, verbs[i], r.Ratio.String())}
		if bugs[i] != want {
			t.Fatalf("IF bug %d = %+v, want %+v", i, bugs[i], want)
		}
	}
}

// TestBuildOrdersDynamicBugsAsSortReports: Build lists an app's dynamic
// bugs in core.SortReports' order without sorting the shared reports,
// ties between reports with equal sort keys included.
func TestBuildOrdersDynamicBugsAsSortReports(t *testing.T) {
	var reports []oracle.Report
	for i := 0; i < 60; i++ {
		reports = append(reports, oracle.Report{
			Kind: []oracle.Kind{oracle.MissingCap, oracle.MissingDelay}[i%2], App: "HD",
			Coordinator: fmt.Sprintf("c%d", i*7%5), GroupKey: fmt.Sprintf("g%d", i%3), Test: fmt.Sprintf("t%d", i%4),
			Details: fmt.Sprintf("report %d", i),
		})
	}
	shared := append([]oracle.Report(nil), reports...)
	orig := append([]oracle.Report(nil), reports...)
	id := &core.Identification{}
	a := Build(&core.CorpusRun{Apps: []core.AppRun{{ID: id, Dyn: &core.DynamicResult{Reports: shared}, Static: &core.StaticResult{}}}}).Apps[0]
	core.SortReports(reports)
	for i, r := range reports {
		if a.Bugs[i].Details != r.Details {
			t.Fatalf("bug %d is %q, want %q", i, a.Bugs[i].Details, r.Details)
		}
	}
	if !reflect.DeepEqual(shared, orig) {
		t.Fatal("Build reordered the shared reports")
	}
}
