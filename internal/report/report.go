// Package report renders a pipeline run as a canonical, deterministic
// JSON document — the machine-readable analogue of cmd/wasabi's text
// output and the response body WASABI-as-a-service returns (§4's
// evaluation artifacts, reproducible byte for byte).
//
// Determinism is structural, not accidental: the document contains only
// slices (never maps with mixed iteration order), every slice is either
// produced in canonical order by internal/core's reducers or explicitly
// sorted here, struct fields marshal in declaration order, and the
// schema carries an explicit version. Two runs over identical inputs at
// any Options.Workers setting — including a cold run and a warm
// cache-served run — therefore marshal to identical bytes, which the
// golden-file test pins.
package report

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"wasabi/internal/core"
	"wasabi/internal/jsonwrite"
	"wasabi/internal/llm"
	"wasabi/internal/sast"
)

// Schema identifies the document format. Bump on any field change.
const Schema = "wasabi-report/v1"

// Document is one full corpus (or sub-corpus) run.
type Document struct {
	Schema string `json:"schema"`
	// Apps holds the per-application reports in input order.
	Apps []App `json:"apps"`
	// IFRatios and IFBugs are the corpus-wide retry-ratio analysis over
	// the run's applications (§3.2.2).
	IFRatios []Ratio `json:"if_ratios"`
	IFBugs   []Bug   `json:"if_bugs"`
	// Usage is the LLM traffic attributable to the run's reviews. It is
	// an attribution, summed from per-file review costs, so a warm
	// cache-served run reports the same usage as the cold run that paid
	// for it; fresh spend is an observability fact (llm_tokens_in_total),
	// not a report field.
	Usage Usage `json:"llm_usage"`
	// Degraded marks a run that hit an LLM backend outage: LLM-dependent
	// findings under-report by construction.
	Degraded bool `json:"degraded"`
}

// App is one application's report. The root package's wasabi.Report
// is this type.
type App struct {
	Code       string      `json:"code"`
	Name       string      `json:"name"`
	Structures []Structure `json:"structures"`
	// Bugs are the deduplicated findings of the dynamic and static-LLM
	// workflows, dynamic first, each block in canonical order.
	Bugs     []Bug    `json:"bugs"`
	Coverage Coverage `json:"coverage"`
	// TruncatedFiles are files too large for the LLM (§4.2 misses).
	TruncatedFiles []string `json:"truncated_files,omitempty"`
	// DegradedFiles are files whose LLM review was lost to backend
	// faults (static-only fallback), with reasons.
	DegradedFiles []DegradedFile `json:"degraded_files,omitempty"`
}

// Structure is one identified retry structure.
type Structure struct {
	Coordinator string `json:"coordinator"`
	File        string `json:"file"`
	Mechanism   string `json:"mechanism"`
	ByCodeQL    bool   `json:"found_by_codeql"`
	ByLLM       bool   `json:"found_by_llm"`
	Triplets    int    `json:"injectable_triplets"`
}

// Bug is one detector finding.
type Bug struct {
	// Workflow is "dynamic", "static-llm", or "static-if".
	Workflow string `json:"workflow"`
	// Kind is "missing-cap", "missing-delay", "how", or "wrong-policy".
	Kind        string `json:"kind"`
	Coordinator string `json:"coordinator"`
	Details     string `json:"details"`
}

// Coverage is the dynamic workflow's coverage and cost statistics.
type Coverage struct {
	TestsTotal         int `json:"tests_total"`
	TestsCoveringRetry int `json:"tests_covering_retry"`
	StructuresTotal    int `json:"structures_total"`
	StructuresTested   int `json:"structures_tested"`
	PlanEntries        int `json:"plan_entries"`
	PlannedRuns        int `json:"planned_runs"`
	NaiveRuns          int `json:"naive_runs"`
	RunsFailed         int `json:"injection_runs_failed"`
}

// DegradedFile mirrors core.DegradedFile.
type DegradedFile struct {
	File   string `json:"file"`
	Reason string `json:"reason"`
}

// Ratio is one corpus-wide exception retry ratio.
type Ratio struct {
	Exception string `json:"exception"`
	Retried   int    `json:"retried"`
	Total     int    `json:"total"`
}

// Usage mirrors llm.Usage.
type Usage struct {
	Calls    int     `json:"calls"`
	TokensIn int64   `json:"tokens_in"`
	CostUSD  float64 `json:"cost_usd"`
}

// Build converts a finished corpus run into the canonical document.
// The document of a memoized run is built once (memo.go): it is kept
// for the run's first app and served again while the run is made of the
// same app results, IF results, usage and degradation. A document Build
// returns may so be shared with later runs, and no caller may mutate
// it.
func Build(cr *core.CorpusRun) *Document {
	if m, ok := cr.Kept().(*docMemo); ok && m.matches(cr) {
		return m.doc
	}
	doc := build(cr)
	cr.Keep(newDocMemo(cr, doc))
	return doc
}

// build converts cr.
func build(cr *core.CorpusRun) *Document {
	doc := &Document{
		Schema:   Schema,
		Apps:     make([]App, 0, len(cr.Apps)),
		IFRatios: make([]Ratio, 0, len(cr.IFRatios)),
		IFBugs:   IFBugs(cr.IFReports),
		Usage:    usageOf(cr.Usage),
		Degraded: cr.Degraded,
	}
	for _, ar := range cr.Apps {
		doc.Apps = append(doc.Apps, buildApp(ar))
	}
	for _, r := range cr.IFRatios {
		doc.IFRatios = append(doc.IFRatios, Ratio{Exception: r.Exception, Retried: r.Retried, Total: r.Total})
	}
	return doc
}

// IFBugs renders the corpus-wide retry-ratio outliers (§3.2.2) as
// findings. The result is never nil, so an empty list renders as [].
func IFBugs(reports []sast.IFReport) []Bug {
	out := make([]Bug, 0, len(reports))
	var stack [256]byte
	for _, r := range reports {
		verb := " never retried here though usually retried ("
		if r.Retried {
			verb = " retried here though usually not ("
		}
		// "<exception> <verb> (<ratio>)", the ratio as
		// sast.ExceptionRatio.String renders it, written on the stack
		// so the string is its one allocation.
		d := append(append(stack[:0], r.Exception...), verb...)
		d = append(append(d, r.Ratio.Exception...), " retried "...)
		d = append(strconv.AppendInt(d, int64(r.Ratio.Retried), 10), '/')
		d = append(strconv.AppendInt(d, int64(r.Ratio.Total), 10), ')')
		out = append(out, Bug{
			Workflow:    "static-if",
			Kind:        "wrong-policy",
			Coordinator: r.Coordinator,
			Details:     string(d),
		})
	}
	return out
}

// buildApp converts one application's artifacts.
func buildApp(ar core.AppRun) App {
	a := App{
		Code: ar.App.Code,
		Name: ar.App.Name,
		Coverage: Coverage{
			TestsTotal:         ar.Dyn.TestsTotal,
			TestsCoveringRetry: ar.Dyn.TestsCoveringRetry,
			StructuresTotal:    ar.Dyn.StructuresTotal,
			StructuresTested:   ar.Dyn.StructuresTested,
			PlanEntries:        ar.Dyn.PlanEntries,
			PlannedRuns:        ar.Dyn.PlannedRuns,
			NaiveRuns:          ar.Dyn.NaiveRuns,
			RunsFailed:         ar.Dyn.InjectionRunsFailed,
		},
		TruncatedFiles: append([]string(nil), ar.ID.TruncatedFiles...),
	}
	// Slices are sized up front, but only when non-empty: an app with no
	// structures or bugs keeps a nil slice, which renders as null.
	if n := len(ar.ID.Structures); n > 0 {
		a.Structures = make([]Structure, 0, n)
	}
	for _, s := range ar.ID.Structures {
		a.Structures = append(a.Structures, Structure{
			Coordinator: s.Coordinator,
			File:        s.File,
			Mechanism:   s.Mechanism,
			ByCodeQL:    s.FoundBy.CodeQL,
			ByLLM:       s.FoundBy.LLM,
			Triplets:    len(s.Triplets),
		})
	}
	// The dynamic reports are the cache's shared value: sort their
	// positions, not a copy (core.SortReports' order).
	dyn := ar.Dyn.Reports
	order := make([]int, len(dyn))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int { return core.CompareReports(&dyn[i], &dyn[j]) })
	if n := len(dyn) + len(ar.Static.WhenReports); n > 0 {
		a.Bugs = make([]Bug, 0, n)
	}
	for _, i := range order {
		r := &dyn[i]
		a.Bugs = append(a.Bugs, Bug{
			Workflow: "dynamic", Kind: string(r.Kind),
			Coordinator: r.Coordinator, Details: r.Details,
		})
	}
	for _, r := range ar.Static.WhenReports {
		a.Bugs = append(a.Bugs, Bug{
			Workflow: "static-llm", Kind: r.Kind,
			Coordinator: r.Coordinator, Details: "detected from source (" + r.File + ")",
		})
	}
	for _, d := range ar.ID.Degraded {
		a.DegradedFiles = append(a.DegradedFiles, DegradedFile{File: d.File, Reason: d.Reason})
	}
	return a
}

// usageOf converts llm.Usage.
func usageOf(u llm.Usage) Usage {
	return Usage{Calls: u.Calls, TokensIn: u.TokensIn, CostUSD: u.CostUSD}
}

// Marshal renders the document as indented JSON with a trailing newline
// — the exact bytes the service serves and cmd/wasabi -json prints.
func Marshal(doc *Document) ([]byte, error) {
	return Render(nil, doc, 0, "\n")
}

// scratch pools the buffers Render writes documents into.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Render returns head, then doc indented at depth (AppendIndent), then
// tail, as one exactly sized slice. The bytes are written into a pooled
// scratch buffer and copied out once, so the result is the only
// allocation however large the document grows. A non-finite cost_usd is
// an error, as it is for encoding/json.
func Render(head []byte, doc *Document, depth int, tail string) ([]byte, error) {
	if c := doc.Usage.CostUSD; math.IsNaN(c) || math.IsInf(c, 0) {
		return nil, fmt.Errorf("report: marshal: unsupported cost_usd %v", c)
	}
	buf := scratch.Get().(*[]byte)
	defer scratch.Put(buf)
	b := append((*buf)[:0], head...)
	b = append(AppendIndent(b, doc, depth), tail...)
	*buf = b
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Body returns Render(nil, doc, depth, tail) for the document Build
// returned for cr. When Build kept that document for cr's memoized
// values, its rendering is kept with it, so every run served the same
// document shares one body: the bytes are immutable, and callers must
// not change them.
func Body(cr *core.CorpusRun, doc *Document, depth int, tail string) ([]byte, error) {
	if m, ok := cr.Kept().(*docMemo); ok && m.doc == doc {
		return m.body(depth, tail)
	}
	return Render(nil, doc, depth, tail)
}

// MarshalApp renders one application section as indented JSON with a
// trailing newline (the GET /v1/reports/{app} body).
func MarshalApp(a App) ([]byte, error) {
	var w jsonwrite.Writer
	b := w.Open(nil, '{')
	b = str(w.Key(b, "schema"), Schema)
	b = app(w.Key(b, "app"), &w, &a)
	return append(w.Close(b, '}'), '\n'), nil
}
