// Package core orchestrates WASABI's two workflows over a corpus
// application: the dynamic testing workflow (identify retry locations →
// plan → inject trigger exceptions into existing unit tests → apply retry
// oracles, §3.1) and the static checking workflow (LLM WHEN-bug detection
// + retry-ratio IF-bug detection, §3.2).
//
// Both workflows execute on a bounded worker pool (Options.Workers, see
// parallel.go): applications, per-file LLM reviews, and independent
// fault-injection plan entries fan out concurrently, and results merge
// through deterministic reducers so every artifact is byte-identical to
// the sequential (Workers=1) execution. docs/ARCHITECTURE.md diagrams the
// pipeline.
package core

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/fault"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/oracle"
	"wasabi/internal/planner"
	"wasabi/internal/sast"
	"wasabi/internal/source"
	"wasabi/internal/testkit"
)

// Options configures a WASABI run.
type Options struct {
	// HowK and CapK are the two injection-count settings (§3.1.2).
	HowK, CapK int
	// Workers bounds the worker pool the pipeline fans out on: corpus
	// applications, per-file LLM reviews, and independent fault-injection
	// plan entries all run on at most Workers goroutines. Zero means
	// runtime.GOMAXPROCS(0); 1 runs everything inline on the calling
	// goroutine, reproducing the original sequential execution exactly.
	// Results are byte-identical at every setting (see parallel.go).
	Workers int
	// Oracle tunes the test oracles.
	Oracle oracle.Options
	// LLM tunes the simulated model.
	LLM llm.Config
	// Ratio tunes the IF-bug outlier analysis.
	Ratio sast.RatioOptions
	// Obs, when non-nil, observes the run: pipeline stages become spans,
	// and every layer reports metrics into Obs.Metrics (catalog in
	// docs/OBSERVABILITY.md). Counter values are byte-identical at every
	// Workers setting; timings and spans are honest measurements. Nil
	// disables observability at the cost of a nil check per event.
	Obs *obs.Observer
	// Cache, when non-nil, memoizes work across runs (docs/SERVICE.md):
	// per-app static analyses keyed by directory content; per-file LLM
	// reviews keyed by (config fingerprint, path, content hash), the
	// fingerprint including any backend topology; and per-app dynamic
	// runs keyed by (build, suite, locations, run options). A warm run
	// over unchanged sources produces byte-identical results with zero
	// fresh LLM spend and, under the same build, zero injection runs.
	// The review rule is the same with or without a router: a hit needs
	// no delivery, a miss is delivered, and only delivered, non-degraded
	// answers are stored.
	Cache *cache.Cache
	// Source, when non-nil, is the parse-once snapshot store every
	// stage loads corpus bytes through (docs/PERFORMANCE.md). The
	// daemon passes one long-lived store so a warm job re-parses only
	// changed files; nil builds a fresh per-toolkit store, which still
	// guarantees each file is read and parsed exactly once per run.
	Source *source.Store
}

// DefaultOptions mirrors the paper's configuration and uses one worker per
// available CPU.
func DefaultOptions() Options {
	return Options{
		HowK:    1,
		CapK:    100,
		Workers: runtime.GOMAXPROCS(0),
		Oracle:  oracle.DefaultOptions(),
		LLM:     llm.DefaultConfig(),
		Ratio:   sast.DefaultRatioOptions(),
	}
}

// Wasabi is the toolkit facade.
type Wasabi struct {
	opts Options
	llm  *llm.Client
	obs  *obs.Observer
	// cache is Options.Cache; nil disables memoization.
	cache *cache.Cache
	// build is the executable's build identity (cache.BuildID), the
	// part of a dynamic-run key that stands for the compiled suites; ""
	// when no cache is attached or the build has no identity.
	build string
	// src is the parse-once snapshot store (Options.Source, or a fresh
	// per-toolkit store): every read of corpus bytes goes through it.
	src *source.Store
	// sem is the worker-pool semaphore shared by every parallel loop of
	// this toolkit instance, so nested fan-out (apps × plan entries) stays
	// bounded by Workers in total. See parallelFor in parallel.go.
	sem chan struct{}
	// active counts in-flight parallelFor tasks (pool-utilization
	// histogram; see parallel.go).
	active atomic.Int64
}

// New returns a toolkit with the given options.
func New(opts Options) *Wasabi {
	if opts.CapK == 0 {
		workers, o, ca, src := opts.Workers, opts.Obs, opts.Cache, opts.Source
		opts = DefaultOptions()
		opts.Workers, opts.Obs, opts.Cache, opts.Source = workers, o, ca, src
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	// The oracle and the LLM client report into the same registry.
	opts.Oracle.Metrics = opts.Obs.Reg()
	w := &Wasabi{
		opts:  opts,
		llm:   llm.NewClient(opts.LLM).Instrument(opts.Obs.Reg()),
		obs:   opts.Obs,
		cache: opts.Cache,
		src:   opts.Source,
		// The calling goroutine always participates in parallel loops, so
		// the pool itself holds Workers-1 extra slots.
		sem: make(chan struct{}, opts.Workers-1),
	}
	if w.src == nil {
		w.src = source.NewStore(opts.Obs.Reg())
	}
	if w.cache != nil {
		w.build = cache.BuildID()
	}
	w.obs.Reg().Gauge("core_pool_workers").Set(float64(opts.Workers))
	return w
}

// stage opens a stage span (named "stage:app", parented under the app
// span when one exists) and returns the function that closes it,
// recording the stage wall-time histogram, whose count is the stage's
// run count. All of it is a no-op when the run is unobserved.
func (w *Wasabi) stage(stage, app string) func() {
	name := stage
	parent := "corpus"
	if app != "" {
		name = stage + ":" + app
		parent = "app:" + app
	}
	sp := w.obs.Trc().Start(name, "stage", "app", app, "parent", parent)
	reg := w.obs.Reg()
	return func() {
		reg.Histogram(obs.StageMetric, obs.LatencyBuckets, "stage", stage).Observe(sp.SinceMS())
		sp.End()
	}
}

// LLMUsage reports accumulated simulated-GPT-4 usage.
func (w *Wasabi) LLMUsage() llm.Usage { return w.llm.Usage() }

// FoundBy records which identification technique(s) located a structure.
type FoundBy struct {
	CodeQL bool
	LLM    bool
}

// Structure is one identified retry code structure, merged across the two
// identification techniques.
type Structure struct {
	Coordinator string
	File        string
	Mechanism   string // best-effort: "loop" | "queue" | "statemachine"
	FoundBy     FoundBy
	// Triplets are the injectable retry locations of the structure.
	Triplets []fault.Location
}

// Identification is the result of running both identification techniques
// over one application.
type Identification struct {
	App string
	// Structures are the merged identified retry structures, sorted by
	// coordinator.
	Structures []Structure
	// CandidateLoops counts structural loop candidates before the
	// keyword filter (§4.4 ablation).
	CandidateLoops int
	// KeywordedLoops counts loops surviving the keyword filter.
	KeywordedLoops int
	// TruncatedFiles are files too large for the LLM (§4.2 misses).
	TruncatedFiles []string
	// Degraded records the files the LLM backend never successfully
	// reviewed (unreliable-backend runs only): the pipeline fell back to
	// static-only analysis for them, and oracles or evaluation harnesses
	// can discount LLM-dependent findings instead of silently
	// under-reporting. Ordered by file name.
	Degraded []DegradedFile
	// Analysis is the underlying static analysis (reused by IF checks).
	Analysis *sast.Analysis
	// Reviews are the raw per-file LLM reviews (reused by static WHEN
	// detection).
	Reviews []llm.FileReview
}

// DegradedFile is one file whose LLM review was degraded away by backend
// faults, with the reason (an llm.Degraded* constant).
type DegradedFile struct {
	File   string
	Reason string
}

// Locations returns every injectable triplet across all structures.
func (id *Identification) Locations() []fault.Location {
	var out []fault.Location
	for _, s := range id.Structures {
		out = append(out, s.Triplets...)
	}
	return out
}

// Identify runs both retry-identification techniques (§3.1.1) on the app.
// It is a run of one app: load its sources, settle the run's LLM
// admissions (StartRun, a no-op unless the router is replayable), then
// identify.
func (w *Wasabi) Identify(app corpus.App) (*Identification, error) {
	snap, err := w.load(app)
	if err != nil {
		return nil, err
	}
	w.llm.StartRun([]*source.Snapshot{snap})
	return w.identify(app, snap, 0)
}

// load reads the app's sources through the snapshot store: one read,
// one hash, and (for changed content) one parse per file, shared by
// every identify consumer — the static analysis, the per-file LLM
// reviews, and the cache's manifest derivation all work off this
// snapshot.
func (w *Wasabi) load(app corpus.App) (*source.Snapshot, error) {
	snap, err := w.src.Load(app.Dir)
	if err != nil {
		return nil, fmt.Errorf("identify %s: %w", app.Code, err)
	}
	return snap, nil
}

// identify is the identify stage over a loaded snapshot; lane is the
// app's position in the run StartRun settled.
func (w *Wasabi) identify(app corpus.App, snap *source.Snapshot, lane int) (*Identification, error) {
	defer w.stage("identify", app.Code)()
	// With a cache attached, derive the manifest from the snapshot's
	// already-computed hashes: it keys the static-analysis entry and
	// carries the per-file content hashes the review keys need.
	var man *cache.DirManifest
	akey := ""
	if w.cache != nil {
		man = cache.FromSnapshot(snap)
		akey = cache.AnalysisKey(app.Dir, man.Digest)
		// The memory tier keeps a directory's analyses, and each file's
		// facts and reviews, for the versions the snapshot store keeps.
		// Every key is recorded after its use (cache.Supersede).
		defer w.cache.Supersede(cache.Lineage{Stage: cache.StageAnalysis, Scope: app.Dir}, akey)
	}
	var analysis *sast.Analysis
	if man != nil {
		analysis, _ = w.cache.GetAnalysis(akey)
	}
	if analysis == nil {
		// The cache doubles as the portable facts tier (sast.FactsStore):
		// per-file extraction hydrates from disk by content hash, so a
		// restarted daemon rebuilds the analysis at zero parses. The
		// explicit nil keeps the interface nil when no cache is attached.
		var facts sast.FactsStore
		if w.cache != nil {
			facts = w.cache
		}
		var err error
		analysis, err = sast.AnalyzeSnapshotWith(snap, facts)
		// A failed analysis has still stored the facts of the files it
		// extracted before the failure.
		if man != nil {
			for _, f := range snap.Files {
				w.cache.Supersede(cache.Lineage{Stage: cache.StageFacts, Scope: f.Path}, cache.FactsKey(f.SHA256))
			}
		}
		if err != nil {
			return nil, fmt.Errorf("identify %s: %w", app.Code, err)
		}
		w.cache.PutAnalysis(akey, analysis, 0)
	}
	id := &Identification{
		App:            app.Code,
		CandidateLoops: analysis.CandidateLoops,
		KeywordedLoops: len(analysis.Loops),
		Analysis:       analysis,
	}
	merged := make(map[string]*Structure)

	// Technique 1: control-flow + naming (CodeQL analogue).
	for _, loop := range analysis.Loops {
		s := merged[loop.Coordinator]
		if s == nil {
			s = &Structure{Coordinator: loop.Coordinator, File: loop.File, Mechanism: "loop"}
			merged[loop.Coordinator] = s
		}
		s.FoundBy.CodeQL = true
		for _, t := range loop.Triplets {
			s.Triplets = append(s.Triplets, fault.Location{
				Coordinator: t.Coordinator, Retried: t.Retried, Exception: t.Exception,
			})
		}
	}

	// Technique 2: LLM fuzzy comprehension, with callee/throws resolution
	// delegated back to traditional analysis. Reviews are pure per-file
	// functions consuming the snapshot's bytes and AST (no re-read, no
	// re-parse), so they fan out across the worker pool; the merge below
	// stays sequential in sorted file order, which keeps the identification
	// byte-identical at every Workers setting.
	files := snap.Names()
	reviews := make([]llm.FileReview, len(files))
	cached := make([]bool, len(files))
	w.parallelFor("reviews", len(files), func(i int) {
		sp := w.obs.Trc().Start("review:"+files[i], "review",
			"app", app.Code, "parent", "identify:"+app.Code)
		// The span records the review's outcome facts ("Daemon tracing"
		// in docs/OBSERVABILITY.md): whether it was served from cache,
		// what it freshly spent, and how the resilient client fared —
		// the per-request provenance that answers "which call retried,
		// which degraded, what did it cost".
		defer func() {
			rev := reviews[i]
			fresh := int64(0)
			// Singleflight followers, like cache hits, carry attributed
			// Spent without having moved fresh tokens upstream.
			if !cached[i] && !rev.Shared {
				fresh = rev.Spent.TokensIn
			}
			sp.SetArg("cached", strconv.FormatBool(cached[i]))
			sp.SetArg("fresh_tokens", strconv.FormatInt(fresh, 10))
			if rev.Backend != "" {
				sp.SetArg("backend", rev.Backend)
			}
			if rev.Shared {
				sp.SetArg("coalesced", "true")
			}
			if rev.Retries > 0 {
				sp.SetArg("retries", strconv.Itoa(rev.Retries))
			}
			if rev.Degraded {
				sp.SetArg("degraded", rev.DegradedReason)
			}
			sp.End()
		}()
		// One rule for every topology: a hit needs no delivery (a
		// replayable run settled every file's delivery in StartRun, so
		// skipping one shifts no later grant), a miss is delivered, and
		// only a delivered answer is stored.
		sf := snap.Files[i]
		key := ""
		if w.cache != nil {
			fp := w.llm.Fingerprint()
			key = cache.ReviewKey(fp, sf.Path, sf.SHA256)
			defer w.cache.Supersede(cache.Lineage{Stage: cache.StageReview, Scope: sf.Path, Config: fp}, key)
			if rev, ok := w.cache.GetReview(key); ok {
				reviews[i], cached[i] = rev, true
				return
			}
		}
		reviews[i] = w.llm.ReviewSnapshotAt(sf, lane, i)
		// Degraded reviews record a backend failure, not an answer —
		// memoizing one would pin the failure past the fault.
		// PutReview drops the routing facts (Retries, Backend, Shared):
		// they describe this delivery, not the answer.
		if key != "" && !reviews[i].Degraded {
			w.cache.PutReview(key, reviews[i])
		}
	})
	if reg := w.obs.Reg(); reg != nil {
		// Fresh spend only: cache hits carry their original attributed
		// Spent (so reports stay byte-identical warm vs cold), but no
		// tokens actually moved for them this run.
		var tokens int64
		for i, rev := range reviews {
			if !cached[i] && !rev.Shared {
				tokens += rev.Spent.TokensIn
			}
		}
		reg.Counter("core_app_llm_tokens_total", "app", app.Code).Add(tokens)
	}
	if len(reviews) > 0 {
		id.Reviews = reviews
	}
	for i, f := range files {
		rev := reviews[i]
		if rev.Degraded {
			// The backend never answered for this file: record the gap and
			// carry on with static-only signal (graceful degradation, not
			// failure). The merge loop is sequential in sorted file order,
			// so these counters stay deterministic at every Workers setting.
			id.Degraded = append(id.Degraded, DegradedFile{File: f, Reason: rev.DegradedReason})
			w.obs.Reg().Counter("pipeline_degraded_files_total").Inc()
			w.obs.Reg().Counter("pipeline_degraded_reason_total", "reason", rev.DegradedReason).Inc()
			continue
		}
		if rev.TruncatedContext {
			id.TruncatedFiles = append(id.TruncatedFiles, f)
			continue
		}
		for _, find := range rev.Findings {
			s := merged[find.Coordinator]
			if s == nil {
				s = &Structure{Coordinator: find.Coordinator, File: find.File, Mechanism: find.Mechanism}
				merged[find.Coordinator] = s
			}
			s.FoundBy.LLM = true
			if s.Mechanism == "loop" && find.Mechanism != "loop" {
				s.Mechanism = find.Mechanism
			}
			for _, t := range analysis.CalleesOf(find.Coordinator) {
				s.Triplets = append(s.Triplets, fault.Location{
					Coordinator: t.Coordinator, Retried: t.Retried, Exception: t.Exception,
				})
			}
		}
	}

	if len(merged) > 0 {
		id.Structures = make([]Structure, 0, len(merged))
	}
	for _, s := range merged {
		s.Triplets = dedupLocations(s.Triplets)
		id.Structures = append(id.Structures, *s)
	}
	sort.Slice(id.Structures, func(i, j int) bool {
		return id.Structures[i].Coordinator < id.Structures[j].Coordinator
	})
	return id, nil
}

func dedupLocations(locs []fault.Location) []fault.Location {
	seen := make(map[fault.Location]bool, len(locs))
	var out []fault.Location
	for _, l := range locs {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Retried != out[j].Retried {
			return out[i].Retried < out[j].Retried
		}
		return out[i].Exception < out[j].Exception
	})
	return out
}

// DynamicResult is the outcome of the repurposed-unit-testing workflow on
// one application.
type DynamicResult struct {
	App string
	// Reports are the deduplicated oracle reports (distinct bugs).
	Reports []oracle.Report
	// Coverage statistics.
	TestsTotal          int
	TestsCoveringRetry  int
	StructuresTotal     int
	StructuresTested    int
	StrippedOverrides   int
	PlanEntries         int
	NaiveRuns           int
	PlannedRuns         int
	InjectionRunsFailed int // runs that crashed (before oracle filtering)
}

// RunDynamic executes the dynamic workflow for one app, given its
// identification. With a cache attached, the outcome of the app's
// injection runs is memoised under its build, suite and run inputs
// (cache.DynamicKey): a hit executes no test and yields the same result
// a fresh run would.
func (w *Wasabi) RunDynamic(app corpus.App, id *Identification) (*DynamicResult, error) {
	defer w.stage("dynamic", app.Code)()
	locs := id.Locations()
	// Without a cache w.build is empty, so the key is too: no memo.
	key := cache.DynamicKey(w.build, app.Suite.ID, app.Code, locs, w.opts.HowK, w.opts.CapK, w.opts.Oracle)
	if key != "" {
		defer w.cache.Supersede(cache.DynamicLineage(w.build, app.Suite.ID, app.Code, w.opts.HowK, w.opts.CapK, w.opts.Oracle), key)
	}
	run, ok := w.cache.GetDynamic(key)
	if !ok {
		var err error
		if run, err = w.runSuite(app, locs); err != nil {
			return nil, err
		}
		w.cache.PutDynamic(key, run)
	}
	// Per-job result counters count every job, served or executed; the
	// counters of executed work are incremented inside runSuite only.
	reg := w.obs.Reg()
	reg.Counter("core_plan_entries_total", "app", app.Code).Add(int64(run.PlanEntries))
	reg.Counter("core_distinct_bugs_total", "app", app.Code).Add(int64(len(run.Reports)))
	return &DynamicResult{
		App:                 app.Code,
		Reports:             run.Reports,
		TestsTotal:          len(app.Suite.Tests),
		TestsCoveringRetry:  run.TestsCoveringRetry,
		StructuresTotal:     len(id.Structures),
		StructuresTested:    run.StructuresTested,
		StrippedOverrides:   run.StrippedOverrides,
		PlanEntries:         run.PlanEntries,
		NaiveRuns:           run.NaiveRuns,
		PlannedRuns:         run.PlannedRuns,
		InjectionRunsFailed: run.InjectionRunsFailed,
	}, nil
}

// runSuite executes the app's suite against its retry locations: the
// coverage pass, the plan, and every planned injection run under the
// oracles.
func (w *Wasabi) runSuite(app corpus.App, locs []fault.Location) (cache.DynamicRun, error) {
	cov := planner.Collect(app.Suite, locs)
	plan := planner.BuildPlan(cov)
	triggers := planner.IndexTriggers(locs)

	testsByName := make(map[string]testkit.Test, len(app.Suite.Tests))
	for _, t := range app.Suite.Tests {
		testsByName[t.Name] = t
	}

	// Every plan entry owns its injector and trace (testkit.Run builds a
	// fresh trace.Run per execution), so entries are independent and fan
	// out across the worker pool. Per-entry reports are kept in plan order
	// and flattened sequentially below, which makes the assembled report
	// stream — and therefore the first-report-wins dedup — byte-identical
	// to the sequential execution at every Workers setting.
	type entryOutcome struct {
		reports []oracle.Report
		failed  int
		err     error
	}
	outcomes := make([]entryOutcome, len(plan))
	reg := w.obs.Reg()
	w.parallelFor("entries", len(plan), func(i int) {
		entry := plan[i]
		out := &outcomes[i]
		test, ok := testsByName[entry.Test]
		if !ok {
			out.err = fmt.Errorf("plan references unknown test %s", entry.Test)
			return
		}
		sp := w.obs.Trc().Start(entry.Test, "entry",
			"app", app.Code, "coordinator", entry.Loc.Coordinator, "parent", "dynamic:"+app.Code)
		defer sp.End()
		for _, exc := range triggers[entry.Loc] {
			loc := fault.Location{Coordinator: entry.Loc.Coordinator, Retried: entry.Loc.Retried, Exception: exc}
			for _, k := range []int{w.opts.HowK, w.opts.CapK} {
				rules := []fault.Rule{{Loc: loc, K: k}}
				res := testkit.Run(test, fault.NewInjector(rules).Instrument(reg), cov.Prepared[test.Name])
				reg.Counter("core_injection_runs_total", "app", app.Code).Inc()
				if res.Failed() {
					out.failed++
					reg.Counter("core_injection_runs_failed_total", "app", app.Code).Inc()
				}
				out.reports = append(out.reports, oracle.Evaluate(app.Code, res, rules, w.opts.Oracle)...)
			}
		}
	})
	var all []oracle.Report
	failed := 0
	for _, out := range outcomes {
		if out.err != nil {
			return cache.DynamicRun{}, out.err
		}
		all = append(all, out.reports...)
		failed += out.failed
	}

	tested := make(map[string]bool)
	for p := range cov.Covered() {
		tested[p.Coordinator] = true
	}

	return cache.DynamicRun{
		Reports:             oracle.Dedup(all),
		TestsCoveringRetry:  cov.CoveringTests(),
		StructuresTested:    len(tested),
		StrippedOverrides:   cov.Stripped,
		PlanEntries:         len(plan),
		NaiveRuns:           triggers.NaiveRuns(cov),
		PlannedRuns:         triggers.PlannedRuns(plan),
		InjectionRunsFailed: failed,
	}, nil
}

// StaticResult is the outcome of the static checking workflow for one app.
type StaticResult struct {
	App string
	// WhenReports are the LLM's missing-cap/missing-delay findings.
	WhenReports []llm.WhenReport
	// Usage is the LLM traffic attributable to this app: the sum over its
	// file reviews. It is independent of how apps are scheduled across
	// workers (a cumulative snapshot would not be).
	Usage llm.Usage
}

// RunStatic executes the LLM-based WHEN-bug detection for one app using
// the reviews gathered during identification.
func (w *Wasabi) RunStatic(app corpus.App, id *Identification) *StaticResult {
	defer w.stage("static", app.Code)()
	var reports []llm.WhenReport
	var usage llm.Usage
	for _, rev := range id.Reviews {
		reports = append(reports, llm.DetectWhenBugs(rev)...)
		usage.Add(rev.Spent)
	}
	for _, r := range reports {
		w.obs.Reg().Counter("llm_when_reports_total", "kind", r.Kind).Inc()
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Coordinator != reports[j].Coordinator {
			return reports[i].Coordinator < reports[j].Coordinator
		}
		return reports[i].Kind < reports[j].Kind
	})
	return &StaticResult{App: app.Code, WhenReports: reports, Usage: usage}
}

// RunIFAnalysis runs the corpus-wide retry-ratio IF-bug detection over the
// given identifications (§3.2.2).
func (w *Wasabi) RunIFAnalysis(ids []*Identification) ([]sast.ExceptionRatio, []sast.IFReport) {
	defer w.stage("if", "")()
	var analyses []*sast.Analysis
	for _, id := range ids {
		analyses = append(analyses, id.Analysis)
	}
	ratios, reports := sast.RatioAnalysis(analyses, w.opts.Ratio)
	w.obs.Reg().Counter("core_if_reports_total").Add(int64(len(reports)))
	return ratios, reports
}

// VerifySources sanity-checks that an app directory exists and contains Go
// sources; used by the CLI for friendlier errors.
func VerifySources(app corpus.App) error {
	entries, err := os.ReadDir(app.Dir)
	if err != nil {
		return fmt.Errorf("app %s: %w", app.Code, err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			return nil
		}
	}
	return fmt.Errorf("app %s: no Go sources in %s", app.Code, app.Dir)
}
