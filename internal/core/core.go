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
	"slices"
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

// stage opens a stage span named name under parent and returns it;
// its end closes the span and records the stage wall-time histogram,
// whose count is the stage's run count. All of it is a no-op when the
// run is unobserved.
func (w *Wasabi) stage(stage, name, parent, app string) stageSpan {
	return stageSpan{w: w, stage: stage, sp: w.obs.Trc().Start(name, "stage", "app", app, "parent", parent)}
}

// stageSpan is an open stage span.
type stageSpan struct {
	w     *Wasabi
	stage string
	sp    *obs.Span
}

func (s stageSpan) end() {
	s.w.obs.Reg().Histogram(obs.StageMetric, obs.LatencyBuckets, "stage", s.stage).Observe(s.sp.SinceMS())
	s.sp.End()
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

	// memo is what later jobs reuse of this identification (memo.go);
	// nil for one no memo holds. A memoized identification is shared by
	// every job that identifies the same inputs, so no caller may
	// mutate it.
	memo *identMemo
}

// DegradedFile is one file whose LLM review was degraded away by backend
// faults, with the reason (an llm.Degraded* constant).
type DegradedFile struct {
	File   string
	Reason string
}

// Locations returns every injectable triplet across all structures.
func (id *Identification) Locations() []fault.Location {
	n := 0
	for _, s := range id.Structures {
		n += len(s.Triplets)
	}
	if n == 0 {
		return nil
	}
	out := make([]fault.Location, 0, n)
	for _, s := range id.Structures {
		out = append(out, s.Triplets...)
	}
	return out
}

// Identify runs both retry-identification techniques (§3.1.1) on the app.
// It is a run of one app: load its sources, settle the run's LLM
// admissions (StartRun, a no-op unless the router is replayable), then
// identify. Over unchanged inputs the identification may be the one an
// earlier run over the same snapshot store returned (memo.go), so
// callers must not mutate it.
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
// app's position in the run StartRun settled. Every job looks up the
// analysis and each file's review, with the review's span and the
// counters; the merge of the two is reused from the snapshot's memo
// when the analysis and every review entry are the ones it was merged
// from (memo.go).
func (w *Wasabi) identify(app corpus.App, snap *source.Snapshot, lane int) (*Identification, error) {
	am := appMemoOf(app, snap)
	defer w.stage("identify", am.names.identify, am.names.app, app.Code).end()
	// The cache (nil-safe) memoizes the analysis by directory content,
	// and its disk tier doubles as the portable facts tier, so a
	// restarted daemon rebuilds the analysis at zero parses.
	analysis, err := w.cache.Analysis(snap)
	if err != nil {
		return nil, fmt.Errorf("identify %s: %w", app.Code, err)
	}
	// Technique 2: LLM fuzzy comprehension, with callee/throws resolution
	// delegated back to traditional analysis. Reviews are pure per-file
	// functions consuming the snapshot's bytes and AST (no re-read, no
	// re-parse), so they fan out across the worker pool; the merge
	// stays sequential in sorted file order, which keeps the
	// identification byte-identical at every Workers setting.
	reviews := make([]*llm.FileReview, len(snap.Files))
	cached := make([]bool, len(snap.Files))
	fp := w.llm.Fingerprint()
	w.parallelFor("reviews", len(snap.Files), func(i int) {
		sp := w.obs.Trc().Start(am.names.reviews[i], "review", "app", app.Code, "parent", am.names.identify)
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
			if cached[i] {
				sp.SetArg("cached", "true")
			} else {
				sp.SetArg("cached", "false")
			}
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
		// only a delivered, non-degraded answer is stored.
		sf := snap.Files[i]
		reviews[i], cached[i] = w.cache.Review(fp, sf, func() llm.FileReview {
			return w.llm.ReviewSnapshotAt(sf, lane, i)
		})
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
		am.tokenCounter(reg).Add(tokens)
	}
	id := am.identification(snap, analysis, reviews)
	// The files the backend never answered for: the pipeline carried on
	// with static-only signal for them (graceful degradation, not
	// failure). They are counted on every job, in sorted file order.
	for _, d := range id.Degraded {
		w.obs.Reg().Counter("pipeline_degraded_reason_total", "reason", d.Reason).Inc()
	}
	return id, nil
}

// merge merges both identification techniques over one app into one
// structure per coordinator: technique 1's loops first, then the
// findings of every review that answered, in sorted file order, so the
// first technique to name a coordinator sets its file. The first pass
// creates the structures and counts their triplets; the second fills
// each structure's share of one triplet array.
func merge(app string, snap *source.Snapshot, analysis *sast.Analysis, reviews []*llm.FileReview) *Identification {
	id := &Identification{
		App:            app,
		CandidateLoops: analysis.CandidateLoops,
		KeywordedLoops: len(analysis.Loops),
		Analysis:       analysis,
	}
	if len(reviews) > 0 {
		id.Reviews = make([]llm.FileReview, len(reviews))
		for i, rev := range reviews {
			id.Reviews[i] = *rev
		}
	}
	n := len(analysis.Loops)
	for _, rev := range reviews {
		n += len(rev.Findings)
	}
	index := make(map[string]int, n)
	structures := make([]Structure, 0, n)
	counts := make([]int, 0, n)
	structure := func(coordinator, file, mechanism string) int {
		i, ok := index[coordinator]
		if !ok {
			i = len(structures)
			index[coordinator] = i
			structures = append(structures, Structure{Coordinator: coordinator, File: file, Mechanism: mechanism})
			counts = append(counts, 0)
		}
		return i
	}
	// Technique 1: control-flow + naming (CodeQL analogue).
	for _, loop := range analysis.Loops {
		i := structure(loop.Coordinator, loop.File, "loop")
		structures[i].FoundBy.CodeQL = true
		counts[i] += len(loop.Triplets)
	}
	for i, rev := range reviews {
		f := snap.Files[i].Name
		if rev.Degraded {
			id.Degraded = append(id.Degraded, DegradedFile{File: f, Reason: rev.DegradedReason})
			continue
		}
		if rev.TruncatedContext {
			id.TruncatedFiles = append(id.TruncatedFiles, f)
			continue
		}
		for _, find := range rev.Findings {
			i := structure(find.Coordinator, find.File, find.Mechanism)
			s := &structures[i]
			s.FoundBy.LLM = true
			if s.Mechanism == "loop" && find.Mechanism != "loop" {
				s.Mechanism = find.Mechanism
			}
			counts[i] += len(analysis.CalleesOf(find.Coordinator))
		}
	}
	if len(structures) == 0 {
		return id
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	triplets := make([]fault.Location, 0, total)
	for i, c := range counts {
		if c > 0 {
			structures[i].Triplets = triplets[len(triplets) : len(triplets) : len(triplets)+c]
			triplets = triplets[:len(triplets)+c]
		}
	}
	add := func(coordinator string, ts []sast.Triplet) {
		s := &structures[index[coordinator]]
		for _, t := range ts {
			s.Triplets = append(s.Triplets, fault.Location{Coordinator: t.Coordinator, Retried: t.Retried, Exception: t.Exception})
		}
	}
	for _, loop := range analysis.Loops {
		add(loop.Coordinator, loop.Triplets)
	}
	for _, rev := range reviews {
		if rev.Degraded || rev.TruncatedContext {
			continue
		}
		for _, find := range rev.Findings {
			add(find.Coordinator, analysis.CalleesOf(find.Coordinator))
		}
	}
	for i := range structures {
		structures[i].Triplets = dedupLocations(structures[i].Triplets)
	}
	slices.SortFunc(structures, func(a, b Structure) int { return strings.Compare(a.Coordinator, b.Coordinator) })
	id.Structures = structures
	return id
}

// dedupLocations sorts one structure's locations by (retried,
// exception) and drops repeats, in place. Every location of a structure
// names the structure's coordinator.
func dedupLocations(locs []fault.Location) []fault.Location {
	slices.SortFunc(locs, func(a, b fault.Location) int {
		if c := strings.Compare(a.Retried, b.Retried); c != 0 {
			return c
		}
		if c := strings.Compare(a.Exception, b.Exception); c != 0 {
			return c
		}
		return strings.Compare(a.Coordinator, b.Coordinator)
	})
	return slices.Compact(locs)
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
// (cache.Dynamic): a hit executes no test and yields the same result
// a fresh run would. For a memoized identification, the locations, the
// dynamic key and the result built from one cached run are derived
// once (memo.go).
func (w *Wasabi) RunDynamic(app corpus.App, id *Identification) (*DynamicResult, error) {
	im := id.memoFor(app)
	var name, parent string
	var keys *cache.DynamicKeys
	var locs []fault.Location
	if im != nil {
		name, parent = im.names.dynamic, im.names.app
		keys, locs = &im.dynKeys, im.locs
	} else {
		name, parent = stageNames("dynamic", app.Code)
		locs = id.Locations()
	}
	defer w.stage("dynamic", name, parent, app.Code).end()
	run, err := w.cache.Dynamic(keys, w.build, app.Suite.ID, app.Code, locs, w.opts.HowK, w.opts.CapK, w.opts.Oracle,
		func() (cache.DynamicRun, error) { return w.runSuite(app, locs) })
	if err != nil {
		return nil, err
	}
	// Per-job result counters count every job, served or executed; the
	// counters of executed work are incremented inside runSuite only.
	reg := w.obs.Reg()
	reg.Counter("core_plan_entries_total", "app", app.Code).Add(int64(run.PlanEntries))
	reg.Counter("core_distinct_bugs_total", "app", app.Code).Add(int64(len(run.Reports)))
	if im != nil {
		return im.dynamicResult(&run, len(app.Suite.Tests)), nil
	}
	return newDynamicResult(app.Code, id, &run, len(app.Suite.Tests)), nil
}

// newDynamicResult is the dynamic result of one run of a suite of tests
// tests over id's structures.
func newDynamicResult(app string, id *Identification, run *cache.DynamicRun, tests int) *DynamicResult {
	return &DynamicResult{
		App:                 app,
		Reports:             run.Reports,
		TestsTotal:          tests,
		TestsCoveringRetry:  run.TestsCoveringRetry,
		StructuresTotal:     len(id.Structures),
		StructuresTested:    run.StructuresTested,
		StrippedOverrides:   run.StrippedOverrides,
		PlanEntries:         run.PlanEntries,
		NaiveRuns:           run.NaiveRuns,
		PlannedRuns:         run.PlannedRuns,
		InjectionRunsFailed: run.InjectionRunsFailed,
	}
}

// stageNames are the span name and parent of an app's stage that no
// memo names.
func stageNames(stage, app string) (name, parent string) {
	return stage + ":" + app, "app:" + app
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
// the reviews gathered during identification. A memoized
// identification derives its result once and counts its reports by
// kind on every job.
func (w *Wasabi) RunStatic(app corpus.App, id *Identification) *StaticResult {
	var res *StaticResult
	var kinds []kindCount
	if im := id.memoFor(app); im != nil {
		defer w.stage("static", im.names.static, im.names.app, app.Code).end()
		res, kinds = im.staticResult()
	} else {
		name, parent := stageNames("static", app.Code)
		defer w.stage("static", name, parent, app.Code).end()
		res, kinds = deriveStatic(app.Code, id.Reviews)
	}
	for _, k := range kinds {
		w.obs.Reg().Counter("llm_when_reports_total", "kind", k.kind).Add(k.n)
	}
	return res
}

// deriveStatic derives an app's WHEN reports from its reviews, in
// (coordinator, kind) order, with how many there are of each kind, in
// kind order.
func deriveStatic(app string, reviews []llm.FileReview) (*StaticResult, []kindCount) {
	var reports []llm.WhenReport
	var usage llm.Usage
	for _, rev := range reviews {
		reports = append(reports, llm.DetectWhenBugs(rev)...)
		usage.Add(rev.Spent)
	}
	slices.SortFunc(reports, func(a, b llm.WhenReport) int {
		if c := strings.Compare(a.Coordinator, b.Coordinator); c != 0 {
			return c
		}
		return strings.Compare(a.Kind, b.Kind)
	})
	var kinds []kindCount
	for _, r := range reports {
		i := slices.IndexFunc(kinds, func(k kindCount) bool { return k.kind == r.Kind })
		if i < 0 {
			i = len(kinds)
			kinds = append(kinds, kindCount{kind: r.Kind})
		}
		kinds[i].n++
	}
	slices.SortFunc(kinds, func(a, b kindCount) int { return strings.Compare(a.kind, b.kind) })
	return &StaticResult{App: app, WhenReports: reports, Usage: usage}, kinds
}

// RunIFAnalysis runs the corpus-wide retry-ratio IF-bug detection over the
// given identifications (§3.2.2). The first memoized identification
// keeps the last result (memo.go), so a warm job over unchanged apps
// derives nothing; the reports are counted on every job.
func (w *Wasabi) RunIFAnalysis(ids []*Identification) ([]sast.ExceptionRatio, []sast.IFReport) {
	defer w.stage("if", "if", "corpus", "").end()
	ratios, reports := ratioAnalysis(ids, w.opts.Ratio)
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
