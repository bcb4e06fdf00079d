package wasabi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wasabi/internal/report"
)

func TestCorpusHasEightApps(t *testing.T) {
	apps := Corpus()
	if len(apps) != 8 {
		t.Fatalf("corpus = %d apps", len(apps))
	}
	codes := map[string]bool{}
	for _, a := range apps {
		codes[a.Code] = true
	}
	for _, want := range []string{"HA", "HD", "MA", "YA", "HB", "HI", "CA", "EL"} {
		if !codes[want] {
			t.Errorf("missing app %s", want)
		}
	}
}

func TestAppByCode(t *testing.T) {
	if _, err := AppByCode("HB"); err != nil {
		t.Error(err)
	}
	if _, err := AppByCode("nope"); err == nil {
		t.Error("expected error for unknown code")
	}
}

func TestPipelineAnalyzeFindsSeededBugs(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	app, err := AppByCode("CA")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Analyze(app)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != "CA" || rep.Coverage.StructuresTotal == 0 {
		t.Fatalf("report = %+v", rep)
	}
	var sawDynamic, sawStatic bool
	for _, b := range rep.Bugs {
		switch b.Workflow {
		case "dynamic":
			sawDynamic = true
		case "static-llm":
			sawStatic = true
		}
		if b.Kind == "" || b.Coordinator == "" {
			t.Errorf("incomplete bug report: %+v", b)
		}
	}
	if !sawDynamic || !sawStatic {
		t.Errorf("both workflows should report on Cassandra: dyn=%v static=%v", sawDynamic, sawStatic)
	}
	if u := p.LLMUsage(); u.Calls == 0 || u.CostUSD <= 0 {
		t.Errorf("usage = %+v", u)
	}
}

func TestPipelineIFBugsAcrossApps(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	var apps []App
	for _, code := range []string{"HI", "CA", "HB"} {
		app, _ := AppByCode(code)
		apps = append(apps, app)
	}
	if _, err := p.AnalyzeAll(apps...); err != nil {
		t.Fatal(err)
	}
	bugs := p.IFBugs()
	if len(bugs) == 0 {
		t.Fatal("no IF outliers across HI+CA+HB")
	}
	for _, b := range bugs {
		if b.Workflow != "static-if" || b.Kind != "wrong-policy" {
			t.Errorf("bad IF report: %+v", b)
		}
		if !strings.Contains(b.Details, "retried") {
			t.Errorf("details should describe the outlier: %q", b.Details)
		}
	}
}

// TestFacadeIsCanonicalReport holds the facade to the canonical
// document: every report AnalyzeAll returns renders exactly as its app
// section of ReportJSON (bug order included), Analyze on a fresh
// pipeline renders the same bytes, and IFBugs is the document's if_bugs.
func TestFacadeIsCanonicalReport(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Workers = workers
			p := NewPipeline(cfg)
			reports, err := p.AnalyzeAll()
			if err != nil {
				t.Fatal(err)
			}
			doc, err := p.ReportJSON()
			if err != nil {
				t.Fatal(err)
			}
			var raw struct {
				Apps   []json.RawMessage `json:"apps"`
				IFBugs []report.Bug      `json:"if_bugs"`
			}
			if err := json.Unmarshal(doc, &raw); err != nil {
				t.Fatal(err)
			}
			if len(reports) != len(raw.Apps) || len(reports) != len(Corpus()) {
				t.Fatalf("%d reports, %d document apps", len(reports), len(raw.Apps))
			}
			for i, rep := range reports {
				want := compact(t, []byte(fmt.Sprintf(`{"schema":%q,"app":%s}`, report.Schema, raw.Apps[i])))
				got := marshalApp(t, rep)
				if !bytes.Equal(compact(t, got), want) {
					t.Errorf("%s: AnalyzeAll report differs from the document's app section", rep.Code)
				}
				fresh := NewPipeline(cfg)
				app, err := AppByCode(rep.Code)
				if err != nil {
					t.Fatal(err)
				}
				single, err := fresh.Analyze(app)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshalApp(t, single), got) {
					t.Errorf("%s: Analyze on a fresh pipeline differs from AnalyzeAll", rep.Code)
				}
			}
			ifBugs := p.IFBugs()
			if ifBugs == nil || !reflect.DeepEqual(ifBugs, raw.IFBugs) {
				t.Errorf("IFBugs = %+v\nwant the document's if_bugs %+v", ifBugs, raw.IFBugs)
			}
		})
	}
}

// TestIFBugsReadsLatestRun re-analyzes the seed corpus on one pipeline:
// IFBugs covers the most recent run only, so a second AnalyzeAll does
// not count any application twice, and it stays the document's if_bugs.
func TestIFBugsReadsLatestRun(t *testing.T) {
	p := NewPipeline(DefaultConfig())
	if bugs := p.IFBugs(); bugs == nil || len(bugs) != 0 {
		t.Fatalf("IFBugs before any run = %#v, want the empty list", bugs)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.AnalyzeAll(); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := p.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		IFBugs []report.Bug `json:"if_bugs"`
	}
	if err := json.Unmarshal(doc, &raw); err != nil {
		t.Fatal(err)
	}
	if bugs := p.IFBugs(); len(bugs) != 7 || !reflect.DeepEqual(bugs, raw.IFBugs) {
		t.Fatalf("IFBugs after two runs = %d outliers, want the document's %d (7 over the seed corpus)",
			len(bugs), len(raw.IFBugs))
	}
}

func marshalApp(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := report.MarshalApp(*rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func compact(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEvaluateSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	ev, err := Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Apps) != 8 || ev.IFScore.Reports() == 0 {
		t.Errorf("evaluation incomplete: %d apps, %d IF reports", len(ev.Apps), ev.IFScore.Reports())
	}
}
