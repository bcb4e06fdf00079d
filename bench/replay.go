package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/fault"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/oracle"
	"wasabi/internal/planner"
	"wasabi/internal/report"
	"wasabi/internal/sast"
	"wasabi/internal/source"
	"wasabi/internal/testkit"
)

// layerCounts are the work counts the replay takes at layer boundaries.
type layerCounts struct {
	files, bytes, extracts, hydrations           int64
	cacheHits, cacheMisses, reviews, freshTokens int64
	planEntries, runs, failedRuns, throws        int64
	rawReports, distinctReports, reportBytes     int64
}

// replayer runs jobs in-process the way internal/core composes them,
// calling each layer's public functions directly so the benchmark can
// time every call. Jobs run sequentially (core at Workers=1), so spans
// nest and self-times add up to the job's wall time. Its reports must
// match the reference digests, which keeps the replay from drifting
// away from core.
type replayer struct {
	tr    *tracer // nil: spans off
	opts  core.Options
	reg   *obs.Registry
	cache *cache.Cache
	src   *source.Store
	llm   *llm.Client
	fp    string
	n     layerCounts
	// diskLoads accumulates the disk loads of cache handles already
	// replaced (restart replays open a fresh handle per job).
	diskLoads int64
}

func newReplayer(cacheDir string) (*replayer, error) {
	opts := core.DefaultOptions()
	opts.Workers = 1
	r := &replayer{opts: opts, reg: obs.NewRegistry(), llm: llm.NewClient(opts.LLM)}
	r.fp = r.llm.Fingerprint()
	r.src = source.NewStore(r.reg)
	var err error
	r.cache, err = cache.New(cache.Options{Dir: cacheDir, Metrics: r.reg})
	return r, err
}

// reopen replaces the cache and source store with fresh handles over the
// same cache directory: the in-process analogue of a daemon restart.
func (r *replayer) reopen(dir string) error {
	r.diskLoads += r.cache.Stats().DiskLoads
	sp := r.tr.begin("cache.open")
	c, err := cache.New(cache.Options{Dir: dir, Metrics: r.reg})
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.cache, r.src = c, source.NewStore(r.reg)
	return nil
}

func (r *replayer) parses() int64 { return r.reg.Counter("source_parse_total").Value() }

func (r *replayer) totalDiskLoads() int64 { return r.diskLoads + r.cache.Stats().DiskLoads }

func (r *replayer) hit(ok bool) {
	if ok {
		r.n.cacheHits++
	} else {
		r.n.cacheMisses++
	}
}

// call runs fn inside a span.
func (r *replayer) call(name string, fn func()) {
	sp := r.tr.begin(name)
	fn()
	r.tr.end(sp)
}

// facts is the sast.FactsStore the replay hands the static analysis: the
// cache, with each lookup and store timed and counted.
type facts struct{ r *replayer }

func (f facts) GetFacts(sum string) (*sast.FileFacts, bool) {
	var ff *sast.FileFacts
	var ok bool
	f.r.call("cache.get_facts", func() { ff, ok = f.r.cache.GetFacts(sum) })
	f.r.hit(ok)
	if ok {
		f.r.n.hydrations++
	}
	return ff, ok
}

func (f facts) PutFacts(sum string, ff *sast.FileFacts) {
	// The static tier stores facts exactly once per fresh extraction.
	f.r.n.extracts++
	f.r.call("cache.put_facts", func() { f.r.cache.PutFacts(sum, ff) })
}

// job runs one job over apps and returns its marshalled report. A
// non-empty reopenDir first reopens the cache over that directory.
func (r *replayer) job(apps []corpus.App, reopenDir string) ([]byte, error) {
	root := r.tr.begin("job")
	defer r.tr.end(root)
	if reopenDir != "" {
		if err := r.reopen(reopenDir); err != nil {
			return nil, err
		}
	}
	runs := make([]core.AppRun, 0, len(apps))
	for lane, app := range apps {
		id, err := r.identify(app, lane)
		if err != nil {
			return nil, err
		}
		dyn, err := r.dynamic(app, id)
		if err != nil {
			return nil, err
		}
		runs = append(runs, core.AppRun{App: app, ID: id, Dyn: dyn, Static: r.static(app, id)})
	}
	cr := &core.CorpusRun{Apps: runs}
	r.call("core.if", func() {
		analyses := make([]*sast.Analysis, len(runs))
		for i := range runs {
			analyses[i] = runs[i].ID.Analysis
		}
		cr.IFRatios, cr.IFReports = sast.RatioAnalysis(analyses, r.opts.Ratio)
	})
	for _, ar := range runs {
		cr.Usage.Add(ar.Static.Usage)
		for _, d := range ar.ID.Degraded {
			if d.Reason == llm.DegradedOutage {
				cr.Degraded = true
			}
		}
	}
	var doc *report.Document
	r.call("report.build", func() { doc = report.Build(cr) })
	var data []byte
	var err error
	r.call("report.marshal", func() { data, err = report.Marshal(doc) })
	r.n.reportBytes += int64(len(data))
	return data, err
}

// identify mirrors core's identify stage: load the snapshot, reuse or
// rebuild the static analysis (hydrating per-file facts from the cache),
// reuse or compute each file's LLM review, and merge both techniques.
func (r *replayer) identify(app corpus.App, lane int) (*core.Identification, error) {
	sp := r.tr.begin("core.identify")
	defer r.tr.end(sp)
	var snap *source.Snapshot
	var err error
	r.call("source.load", func() { snap, err = r.src.Load(app.Dir) })
	if err != nil {
		return nil, fmt.Errorf("identify %s: %w", app.Code, err)
	}
	r.n.files += int64(len(snap.Files))
	r.n.bytes += snap.TotalBytes()
	var man *cache.DirManifest
	r.call("cache.manifest", func() { man = cache.FromSnapshot(snap) })
	akey := cache.AnalysisKey(app.Dir, man.Digest)
	var analysis *sast.Analysis
	var ok bool
	r.call("cache.get_analysis", func() { analysis, ok = r.cache.GetAnalysis(akey) })
	r.hit(ok)
	if !ok {
		r.call("sast.analyze", func() { analysis, err = sast.AnalyzeSnapshotWith(snap, facts{r}) })
		if err != nil {
			return nil, fmt.Errorf("identify %s: %w", app.Code, err)
		}
		r.call("cache.put_analysis", func() { r.cache.PutAnalysis(akey, analysis, man.TotalBytes) })
	}
	id := &core.Identification{
		App:            app.Code,
		CandidateLoops: analysis.CandidateLoops,
		KeywordedLoops: len(analysis.Loops),
		Analysis:       analysis,
	}
	merged := make(map[string]*core.Structure)
	for _, loop := range analysis.Loops {
		s := merged[loop.Coordinator]
		if s == nil {
			s = &core.Structure{Coordinator: loop.Coordinator, File: loop.File, Mechanism: "loop"}
			merged[loop.Coordinator] = s
		}
		s.FoundBy.CodeQL = true
		for _, t := range loop.Triplets {
			s.Triplets = append(s.Triplets, fault.Location{Coordinator: t.Coordinator, Retried: t.Retried, Exception: t.Exception})
		}
	}
	for i, sf := range snap.Files {
		key := cache.ReviewKey(r.fp, sf.Path, sf.SHA256)
		var rev llm.FileReview
		r.call("cache.get_review", func() { rev, ok = r.cache.GetReview(key) })
		r.hit(ok)
		if !ok {
			r.call("llm.review", func() { rev = r.llm.ReviewSnapshotAt(sf, lane, i) })
			r.n.reviews++
			r.n.freshTokens += rev.Spent.TokensIn
			if !rev.Degraded {
				r.call("cache.put_review", func() { r.cache.PutReview(key, rev) })
			}
		}
		id.Reviews = append(id.Reviews, rev)
		switch {
		case rev.Degraded:
			id.Degraded = append(id.Degraded, core.DegradedFile{File: sf.Name, Reason: rev.DegradedReason})
			continue
		case rev.TruncatedContext:
			id.TruncatedFiles = append(id.TruncatedFiles, sf.Name)
			continue
		}
		for _, find := range rev.Findings {
			s := merged[find.Coordinator]
			if s == nil {
				s = &core.Structure{Coordinator: find.Coordinator, File: find.File, Mechanism: find.Mechanism}
				merged[find.Coordinator] = s
			}
			s.FoundBy.LLM = true
			if s.Mechanism == "loop" && find.Mechanism != "loop" {
				s.Mechanism = find.Mechanism
			}
			for _, t := range analysis.CalleesOf(find.Coordinator) {
				s.Triplets = append(s.Triplets, fault.Location{Coordinator: t.Coordinator, Retried: t.Retried, Exception: t.Exception})
			}
		}
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

// dedupLocations is core's triplet dedup: unique, ordered by (retried,
// exception).
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

// dynamic mirrors core's dynamic stage at Workers=1: collect coverage,
// plan, then run every planned injection and evaluate the oracles.
func (r *replayer) dynamic(app corpus.App, id *core.Identification) (*core.DynamicResult, error) {
	sp := r.tr.begin("core.dynamic")
	defer r.tr.end(sp)
	locs := id.Locations()
	var cov planner.Coverage
	r.call("planner.collect", func() { cov = planner.Collect(app.Suite, locs) })
	var plan []planner.Entry
	r.call("planner.plan", func() { plan = planner.BuildPlan(cov) })
	r.n.planEntries += int64(len(plan))
	tests := make(map[string]testkit.Test, len(app.Suite.Tests))
	for _, t := range app.Suite.Tests {
		tests[t.Name] = t
	}
	var all []oracle.Report
	failed := 0
	for _, entry := range plan {
		test, ok := tests[entry.Test]
		if !ok {
			return nil, fmt.Errorf("plan references unknown test %s", entry.Test)
		}
		for _, exc := range planner.Exceptions(locs, entry.Loc) {
			loc := fault.Location{Coordinator: entry.Loc.Coordinator, Retried: entry.Loc.Retried, Exception: exc}
			for _, k := range []int{r.opts.HowK, r.opts.CapK} {
				rules := []fault.Rule{{Loc: loc, K: k}}
				inj := fault.NewInjector(rules)
				var res testkit.Result
				r.call("testkit.run", func() { res = testkit.Run(test, inj, cov.Prepared[test.Name]) })
				r.n.runs++
				r.n.throws += int64(inj.Throws(loc))
				if res.Failed() {
					failed++
					r.n.failedRuns++
				}
				r.call("oracle.evaluate", func() { all = append(all, oracle.Evaluate(app.Code, res, rules, r.opts.Oracle)...) })
			}
		}
	}
	tested := make(map[string]bool)
	for p := range cov.Covered() {
		tested[p.Coordinator] = true
	}
	var deduped []oracle.Report
	r.call("oracle.dedup", func() { deduped = oracle.Dedup(all) })
	r.n.rawReports += int64(len(all))
	r.n.distinctReports += int64(len(deduped))
	return &core.DynamicResult{
		App:                 app.Code,
		Reports:             deduped,
		TestsTotal:          len(app.Suite.Tests),
		TestsCoveringRetry:  cov.CoveringTests(),
		StructuresTotal:     len(id.Structures),
		StructuresTested:    len(tested),
		StrippedOverrides:   cov.Stripped,
		PlanEntries:         len(plan),
		NaiveRuns:           planner.NaiveRuns(cov, locs),
		PlannedRuns:         planner.PlannedRuns(plan, locs),
		InjectionRunsFailed: failed,
	}, nil
}

// static mirrors core's static WHEN-bug stage over the identify reviews.
func (r *replayer) static(app corpus.App, id *core.Identification) *core.StaticResult {
	sp := r.tr.begin("core.static")
	defer r.tr.end(sp)
	var reports []llm.WhenReport
	var usage llm.Usage
	for _, rev := range id.Reviews {
		reports = append(reports, llm.DetectWhenBugs(rev)...)
		usage.Add(rev.Spent)
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Coordinator != reports[j].Coordinator {
			return reports[i].Coordinator < reports[j].Coordinator
		}
		return reports[i].Kind < reports[j].Kind
	})
	return &core.StaticResult{App: app.Code, WhenReports: reports, Usage: usage}
}

// replayPairs is how many pairs of traced and untraced blocks the
// replay runs after priming. A block is one pass of every client over
// its rotation (primeJobs rounds), so traced and untraced jobs see the
// same apps and cache states.
const replayPairs = 6

// replayResult is the traced replay of one workload.
type replayResult struct {
	spans      []span // traced jobs only
	tracedJobs int
	jobs       int
	// tracedWall sums the traced jobs' root spans; tracedRun and
	// untracedRun time the same call, r.job, with spans on and off.
	tracedWall, tracedRun, untracedRun time.Duration
	counts                             layerCounts
	parses                             int64
	diskLoads                          int64
	mismatches                         []string
}

// replay primes the same cache and store state the daemon run starts
// from, then runs a fixed job stream in-process, alternating traced and
// untraced rounds.
func replay(w workload, t *tree, refs map[string]string) (*replayResult, error) {
	cacheDir := ""
	if w.restart {
		cacheDir = "replay-cache"
		if err := os.RemoveAll(cacheDir); err != nil {
			return nil, err
		}
	}
	r, err := newReplayer(cacheDir)
	if err != nil {
		return nil, err
	}
	out := &replayResult{}
	// run replays client c's i-th job and returns how long r.job took.
	run := func(c, i int, tr *tracer) (time.Duration, error) {
		in, err := w.nextJob(t, c, i)
		if err != nil {
			return 0, err
		}
		r.tr = tr
		reopen := ""
		if w.restart && i >= w.primeJobs() {
			reopen = cacheDir
		}
		start := time.Now()
		data, err := r.job(t.appsByCode(in.apps), reopen)
		wall := time.Since(start)
		if err != nil {
			return 0, err
		}
		got, err := reportDigest(data)
		if err != nil {
			return 0, err
		}
		if want := refs[in.key(t)]; got != want {
			out.mismatches = append(out.mismatches, fmt.Sprintf("replay %s: report %s, want %s", in.key(t), got, want))
		}
		return wall, nil
	}
	for c := 0; c < w.clients; c++ {
		for i := 0; i < w.primeJobs(); i++ {
			if _, err := run(c, i, nil); err != nil {
				return nil, err
			}
		}
	}
	r.n = layerCounts{}
	parses0, disk0 := r.parses(), r.totalDiskLoads()
	block := w.primeJobs()
	for round := 0; round < 2*replayPairs*block; round++ {
		for c := 0; c < w.clients; c++ {
			i := block + round
			var tr *tracer
			if (round/block)%2 == 0 {
				tr = &tracer{job: out.jobs}
			}
			wall, err := run(c, i, tr)
			if err != nil {
				return nil, err
			}
			out.jobs++
			if tr == nil {
				out.untracedRun += wall
				continue
			}
			out.tracedJobs++
			out.tracedRun += wall
			out.tracedWall += tr.spans[0].dur()
			offset := len(out.spans)
			for _, s := range tr.spans {
				if s.parent >= 0 {
					s.parent += offset
				}
				out.spans = append(out.spans, s)
			}
		}
	}
	out.counts, out.parses, out.diskLoads = r.n, r.parses()-parses0, r.totalDiskLoads()-disk0
	return out, nil
}
