package core

import (
	"fmt"
	"strings"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
)

// chaosRun executes the full pipeline against a faulty LLM backend — the
// one-backend topology sim=sim:PROFILE — and returns the run plus its
// metrics snapshot. A nil profile runs without a router.
func chaosRun(t *testing.T, profile *llm.FaultProfile, workers int) (*CorpusRun, obs.Snapshot) {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	opts.Obs = obs.New()
	if profile != nil {
		opts.LLM.Backends = []llm.BackendSpec{{Name: "sim", Kind: "sim", Fault: profile}}
	}
	cr, err := New(opts).RunCorpus(corpus.Apps())
	if err != nil {
		t.Fatalf("profile %v workers %d: %v", profile, workers, err)
	}
	return cr, opts.Obs.Reg().Snapshot()
}

// renderRun canonically renders everything the CLI would print from a
// CorpusRun — identification, degradations, dynamic and static reports,
// IF analysis, usage — so byte-equality of two renders is byte-equality
// of pipeline output.
func renderRun(cr *CorpusRun) string {
	var b strings.Builder
	for _, ar := range cr.Apps {
		fmt.Fprintf(&b, "== %s ==\n", ar.App.Code)
		fmt.Fprintf(&b, "structures=%d keyworded=%d candidates=%d truncated=%d\n",
			len(ar.ID.Structures), ar.ID.KeywordedLoops, ar.ID.CandidateLoops, len(ar.ID.TruncatedFiles))
		for _, s := range ar.ID.Structures {
			fmt.Fprintf(&b, "  %s %s codeql=%v llm=%v triplets=%d\n",
				s.Coordinator, s.Mechanism, s.FoundBy.CodeQL, s.FoundBy.LLM, len(s.Triplets))
		}
		for _, d := range ar.ID.Degraded {
			fmt.Fprintf(&b, "  DEGRADED %s %s\n", d.File, d.Reason)
		}
		fmt.Fprintf(&b, "dynamic: %d/%d covered, plan=%d, failed=%d\n",
			ar.Dyn.TestsCoveringRetry, ar.Dyn.TestsTotal, ar.Dyn.PlanEntries, ar.Dyn.InjectionRunsFailed)
		for _, r := range ar.Dyn.Reports {
			fmt.Fprintf(&b, "  [%s] %s %s (%s)\n", r.Kind, r.Coordinator, r.GroupKey, r.Test)
		}
		for _, r := range ar.Static.WhenReports {
			fmt.Fprintf(&b, "  [%s] %s (%s)\n", r.Kind, r.Coordinator, r.File)
		}
		fmt.Fprintf(&b, "usage: %d calls %d tokens\n", ar.Static.Usage.Calls, ar.Static.Usage.TokensIn)
	}
	for _, r := range cr.IFRatios {
		fmt.Fprintf(&b, "ratio %s %d/%d\n", r.Exception, r.Retried, r.Total)
	}
	for _, r := range cr.IFReports {
		fmt.Fprintf(&b, "outlier %s %s %v\n", r.Exception, r.Coordinator, r.Retried)
	}
	fmt.Fprintf(&b, "total: %d calls %d tokens degraded=%v\n", cr.Usage.Calls, cr.Usage.TokensIn, cr.Degraded)
	return b.String()
}

// TestChaosDeterministicAcrossWorkers sweeps fault profiles and asserts
// the determinism contract under chaos: for a fixed (seed, profile), the
// rendered pipeline output AND the metrics counters are byte-identical at
// every worker count — grant decisions, breaker trips and degradations
// must not depend on goroutine scheduling.
func TestChaosDeterministicAcrossWorkers(t *testing.T) {
	profiles := map[string]llm.FaultProfile{
		"zero":   {},
		"light":  {TimeoutDenom: 60, RateLimitDenom: 60, ServerErrorDenom: 60},
		"heavy":  {TimeoutDenom: 15, RateLimitDenom: 15, ServerErrorDenom: 15},
		"mixed":  {TimeoutDenom: 8, RateLimitDenom: 8, ServerErrorDenom: 8, MalformedDenom: 25, OutageAfterFiles: 40},
		"outage": {HardOutage: true},
	}
	for name, profile := range profiles {
		profile := profile
		t.Run(name, func(t *testing.T) {
			var wantRender, wantCounters string
			for _, workers := range []int{1, 2, 4} {
				cr, snap := chaosRun(t, &profile, workers)
				render := renderRun(cr)
				counters, err := snap.CountersJSON()
				if err != nil {
					t.Fatal(err)
				}
				if wantRender == "" {
					wantRender, wantCounters = render, string(counters)
					continue
				}
				if render != wantRender {
					t.Fatalf("workers=%d output differs from workers=1:\n%s\nvs\n%s", workers, render, wantRender)
				}
				if string(counters) != wantCounters {
					t.Fatalf("workers=%d counters differ from workers=1:\n%s\nvs\n%s", workers, counters, wantCounters)
				}
			}
		})
	}
}

// TestZeroFaultProfileMatchesNoTransport: enabling the resilience
// machinery with a fault-free profile must reproduce the no-transport
// pipeline byte-for-byte — admission, budget sequencing and the breaker
// leave no trace when nothing fails.
func TestZeroFaultProfileMatchesNoTransport(t *testing.T) {
	baseline, baseSnap := chaosRun(t, nil, 2)
	zero, zeroSnap := chaosRun(t, &llm.FaultProfile{}, 2)
	if renderRun(baseline) != renderRun(zero) {
		t.Fatal("zero-fault profile changed pipeline output")
	}
	b, err := baseSnap.CountersJSON()
	if err != nil {
		t.Fatal(err)
	}
	z, err := zeroSnap.CountersJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(z) {
		t.Fatalf("zero-fault profile changed counters:\n%s\nvs\n%s", z, b)
	}
}

// TestHardOutageDegradesGracefully: with the backend hard-down the run
// must complete the whole corpus in static-only degraded mode — no error,
// every file review degraded, zero files reviewed, zero LLM spend — and
// pipeline_degraded_reason_total, summed over reasons, must equal the
// number of LLM-skipped files.
func TestHardOutageDegradesGracefully(t *testing.T) {
	cr, snap := chaosRun(t, &llm.FaultProfile{HardOutage: true}, 4)

	if !cr.Degraded {
		t.Error("run with a hard outage must be marked Degraded")
	}
	totalFiles, degraded := 0, 0
	for _, ar := range cr.Apps {
		totalFiles += len(ar.ID.Reviews)
		degraded += len(ar.ID.Degraded)
		// Static structural identification must still function.
		if ar.ID.KeywordedLoops == 0 {
			t.Errorf("%s: static identification found nothing under outage", ar.App.Code)
		}
		for _, rev := range ar.ID.Reviews {
			if !rev.Degraded {
				t.Errorf("%s: review of %s not degraded under hard outage", ar.App.Code, rev.File)
			}
			if rev.Spent != (llm.Usage{}) {
				t.Errorf("%s: degraded review of %s charged %+v", ar.App.Code, rev.File, rev.Spent)
			}
		}
		// LLM-dependent WHEN reports necessarily vanish.
		if len(ar.Static.WhenReports) != 0 {
			t.Errorf("%s: %d WHEN reports from a dead backend", ar.App.Code, len(ar.Static.WhenReports))
		}
	}
	if degraded != totalFiles || totalFiles == 0 {
		t.Fatalf("degraded %d of %d files, want all (and a non-empty corpus)", degraded, totalFiles)
	}
	var got int64
	for _, c := range snap.Counters {
		if c.Name == "pipeline_degraded_reason_total" {
			got += c.Value
		}
	}
	if got != int64(degraded) {
		t.Errorf("Σ pipeline_degraded_reason_total = %d, want %d (the LLM-skipped files)", got, degraded)
	}
	if h, ok := snap.HistogramPoint("llm_review_ms"); ok && h.Count != 0 {
		t.Errorf("llm_review_ms count = %d under hard outage, want 0 (no file reviewed)", h.Count)
	}
	if cr.Usage != (llm.Usage{}) {
		t.Errorf("run charged LLM usage %+v under hard outage, want zero", cr.Usage)
	}
	// The breaker must have tripped: outage failures open it, and skipped
	// reviews are the cheap path.
	if got := snap.Counter("llm_backend_breaker_transitions_total", "backend", "sim", "to", "open"); got == 0 {
		t.Error("hard outage never opened the circuit breaker")
	}
	if got := snap.Counter("pipeline_degraded_reason_total", "reason", llm.DegradedBreakerOpen); got == 0 {
		t.Error("no reviews were skipped by the open breaker")
	}
}

// TestBudgetExhaustionDegradesNotFails: a strict no-refill budget far
// smaller than the corpus's retry demand must produce budget-exhausted
// degradations — and only degrade, never error.
func TestBudgetExhaustionDegradesNotFails(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 2
	opts.Obs = obs.New()
	opts.LLM.Backends = []llm.BackendSpec{{Name: "sim", Kind: "sim", Fault: &llm.FaultProfile{TimeoutDenom: 4, RateLimitDenom: 4, ServerErrorDenom: 4}}}
	opts.LLM.Resilience = llm.ResilienceConfig{BudgetCapacity: 2, BudgetRefillEvery: -1}
	cr, err := New(opts).RunCorpus(corpus.Apps())
	if err != nil {
		t.Fatal(err)
	}
	snap := opts.Obs.Reg().Snapshot()
	if got := snap.Counter("llm_retry_budget_exhausted_total"); got == 0 {
		t.Fatal("a 2-token budget against ~25% fault rates never ran dry")
	}
	found := false
	for _, d := range cr.DegradedFiles() {
		if d.Reason == llm.DegradedBudget {
			found = true
		}
	}
	if !found {
		t.Error("no file carries a budget-exhausted degradation record")
	}
	if cr.Degraded {
		t.Error("budget exhaustion must not mark the whole run degraded (that is reserved for outage)")
	}
}

// routedOptions returns options that route every review through the
// one-backend replayable topology sim=sim:PROFILE.
func routedOptions(t *testing.T, profile string, workers int) Options {
	t.Helper()
	p, err := llm.ParseFaultProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Workers = workers
	opts.LLM.Backends = []llm.BackendSpec{{Name: "sim", Kind: "sim", Fault: &p}}
	return opts
}

// renderIdentification renders an identification's degradation records
// and structures, the parts a replayable router's grants decide.
func renderIdentification(id *Identification) string {
	var b strings.Builder
	for _, d := range id.Degraded {
		fmt.Fprintf(&b, "DEGRADED %s %s\n", d.File, d.Reason)
	}
	for _, s := range id.Structures {
		fmt.Fprintf(&b, "%s %s codeql=%v llm=%v triplets=%v\n",
			s.Coordinator, s.Mechanism, s.FoundBy.CodeQL, s.FoundBy.LLM, s.Triplets)
	}
	return b.String()
}

// TestIdentifyAfterRunCorpusOnRoutedToolkit: a routed toolkit that ran a
// corpus can still identify a single app, and — each Identify being a run
// of its own — gets the answer a fresh toolkit gets.
func TestIdentifyAfterRunCorpusOnRoutedToolkit(t *testing.T) {
	const profile = "timeout=3,ratelimit=3,servererror=3"
	apps := corpus.Apps()
	w := New(routedOptions(t, profile, 4))
	if _, err := w.RunCorpus(apps); err != nil {
		t.Fatal(err)
	}
	got, err := w.Identify(apps[1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(routedOptions(t, profile, 4)).Identify(apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if g, x := renderIdentification(got), renderIdentification(want); g != x {
		t.Fatalf("Identify after RunCorpus differs from a fresh toolkit's:\n%s\nvs\n%s", g, x)
	}
}

// TestIdentifyReplayableAcrossWorkers: a standalone Identify under a
// replayable router grants retries in file order, not arrival order, so
// its degradation records and structures are identical at any worker
// count, run after run.
func TestIdentifyReplayableAcrossWorkers(t *testing.T) {
	const profile = "timeout=3,ratelimit=3,servererror=3"
	for _, code := range []string{"HD", "HB", "EL"} {
		app, err := corpus.ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		identify := func(workers int) string {
			id, err := New(routedOptions(t, profile, workers)).Identify(app)
			if err != nil {
				t.Fatal(err)
			}
			return renderIdentification(id)
		}
		want := identify(1)
		if !strings.Contains(want, "DEGRADED") {
			t.Fatalf("%s: profile %s degraded nothing; the test needs budget pressure", code, profile)
		}
		for run := 0; run < 10; run++ {
			if got := identify(8); got != want {
				t.Fatalf("%s run %d: Workers=8 differs from Workers=1:\n%s\nvs\n%s", code, run, got, want)
			}
		}
	}
}
