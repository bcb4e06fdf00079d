// Package wasabi is a Go reproduction of WASABI, the retry-bug detection
// toolkit from "If At First You Don't Succeed, Try, Try, Again...?
// Insights and LLM-informed Tooling for Detecting Retry Bugs in Software
// Systems" (SOSP 2024).
//
// WASABI detects three classes of retry bugs:
//
//   - IF bugs: wrong retry policies (non-recoverable errors retried,
//     recoverable errors not retried), found by a corpus-wide retry-ratio
//     analysis;
//   - WHEN bugs: missing caps and missing delays, found both by fault
//     injection into existing unit tests and by LLM-based static checking;
//   - HOW bugs: broken retry execution (improper state reset, broken job
//     tracking), found by the "different exception" test oracle.
//
// The package is a thin facade over the toolkit's engine. A typical use:
//
//	p := wasabi.NewPipeline(wasabi.DefaultConfig())
//	for _, app := range wasabi.Corpus() {
//	    report, err := p.Analyze(app)
//	    ...
//	}
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured comparison of every table and figure.
package wasabi

import (
	"fmt"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/core"
	"wasabi/internal/evaluation"
	"wasabi/internal/llm"
	"wasabi/internal/report"
)

// Config tunes a pipeline. The zero value is replaced by DefaultConfig.
type Config = core.Options

// DefaultConfig mirrors the paper's configuration: K ∈ {1, 100}, a
// 100-injection cap threshold, a 15-minute virtual timeout, the measured
// GPT-4 behaviour profile, and one pipeline worker per CPU (set
// Config.Workers = 1 for strictly sequential execution; results are
// byte-identical either way).
func DefaultConfig() Config { return core.DefaultOptions() }

// App is one analyzable target application.
type App = corpus.App

// Corpus returns the eight bundled target applications (miniatures of the
// systems the paper evaluates on).
func Corpus() []App { return corpus.Apps() }

// AppByCode looks up a corpus application by its short code (HA, HD, MA,
// YA, HB, HI, CA, EL).
func AppByCode(code string) (App, error) { return corpus.ByCode(code) }

// BugReport is one detector finding: its workflow ("dynamic",
// "static-llm" or "static-if"), kind, coordinator and details.
type BugReport = report.Bug

// Report is the outcome of analyzing one application: the app section
// of the canonical JSON document (ReportJSON), with its structures,
// deduplicated findings in canonical order, coverage and cost
// statistics. IF bugs are corpus-wide (see Pipeline.IFBugs).
type Report = report.App

// Pipeline runs WASABI's workflows.
type Pipeline struct {
	w *core.Wasabi
	// last is the most recent corpus run, for ReportJSON and IFBugs.
	last *core.CorpusRun
}

// NewPipeline returns a pipeline with the given configuration.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{w: core.New(cfg)}
}

// Analyze runs identification, the dynamic workflow, and the LLM static
// workflow on one application: the one report of AnalyzeAll(app).
func (p *Pipeline) Analyze(app App) (*Report, error) {
	reports, err := p.AnalyzeAll(app)
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// AnalyzeAll analyzes every given application — all of Corpus() when none
// are named — fanning the work out over Config.Workers workers. Reports
// are the app sections of the canonical document, in input order and
// byte-identical whatever the worker count.
func (p *Pipeline) AnalyzeAll(apps ...App) ([]*Report, error) {
	if len(apps) == 0 {
		apps = Corpus()
	}
	cr, err := p.w.RunCorpus(apps)
	if err != nil {
		return nil, fmt.Errorf("wasabi: %w", err)
	}
	p.last = cr
	doc := report.Build(cr)
	reports := make([]*Report, len(doc.Apps))
	for i := range doc.Apps {
		reports[i] = &doc.Apps[i]
	}
	return reports, nil
}

// IFBugs returns the retry-ratio outliers of the most recent Analyze or
// AnalyzeAll run (the document's if_bugs); the empty list before one.
func (p *Pipeline) IFBugs() []BugReport {
	if p.last == nil {
		return report.IFBugs(nil)
	}
	return report.IFBugs(p.last.IFReports)
}

// LLMUsage reports the accumulated simulated-LLM cost (§4.3).
func (p *Pipeline) LLMUsage() llm.Usage { return p.w.LLMUsage() }

// ReportJSON renders the most recent Analyze or AnalyzeAll run as the
// canonical, schema-versioned JSON document — the deterministic
// encoding of every Report plus the corpus-wide IF analysis,
// byte-identical at any worker count (and across warm cache-served
// re-runs). It is the same encoder the wasabid service returns and
// cmd/wasabi -json prints; see docs/SERVICE.md for the schema.
func (p *Pipeline) ReportJSON() ([]byte, error) {
	if p.last == nil {
		return nil, fmt.Errorf("wasabi: ReportJSON needs a prior Analyze or AnalyzeAll run")
	}
	return report.Marshal(report.Build(p.last))
}

// Evaluate runs the complete paper evaluation (all tables and figures)
// over the corpus. It is the programmatic equivalent of cmd/benchreport.
func Evaluate() (*evaluation.Evaluation, error) { return evaluation.Run() }
