// parallel.go implements the bounded worker-pool runner behind
// Options.Workers and the deterministic reducers that merge concurrent
// results.
//
// Three levels of the pipeline fan out on the pool:
//
//   - RunCorpus runs whole applications (identify → dynamic → static)
//     concurrently;
//   - Identify reviews an application's source files concurrently
//     (each review is a pure function of the file contents);
//   - RunDynamic executes independent {test, retry-location} plan entries
//     concurrently (every execution owns a fresh fault.Injector and
//     trace.Run, so no mutable state crosses goroutines — the virtual
//     clock lives on the per-run trace).
//
// All levels share one semaphore sized Workers-1 (the calling goroutine
// always works too), so nested fan-out never runs bodies on more than
// Workers goroutines in total. Determinism comes from indexed result
// slots plus sequential, input-ordered merging: the assembled streams are
// byte-identical to the Workers=1 path regardless of scheduling, which
// determinism_test.go asserts over the full corpus.
package core

import (
	"slices"
	"strings"
	"sync"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/oracle"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// inFlightBuckets sizes the pool-utilization histogram
// (core_pool_tasks_in_flight): the in-flight task count sampled as each
// task starts, bounded by Options.Workers.
var inFlightBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// parallelFor runs fn(0) … fn(n-1), each exactly once. The bound it
// promises: at most opts.Workers goroutines execute bodies at any time,
// across nested calls — the caller of the outermost loop plus at most
// Workers-1 pool goroutines, each holding a semaphore slot while its
// body runs. A saturated call runs its body inline on the calling
// goroutine, so a body nested in another body on the same goroutine adds
// nothing; that is also what keeps nesting deadlock-free. (Concurrent
// outermost calls on one toolkit each bring their own caller.) With
// Workers=1 the loop degrades to a plain sequential for, byte-for-byte
// the pre-parallel behaviour.
//
// level names the fan-out level ("apps", "reviews", "entries") for the
// pool metrics. On observed runs each task reports its queue wait (time
// between submission and execution start — goroutine spawn latency,
// since saturated submissions run inline at zero wait) and samples the
// in-flight task count; task counts per level are deterministic, the
// wait and occupancy distributions are honest measurements.
//
// fn must confine its writes to per-index state (result slots); panics are
// not recovered, matching the sequential path where a panic in fn would
// also crash the run.
func (w *Wasabi) parallelFor(level string, n int, fn func(int)) {
	reg := w.obs.Reg()
	reg.Counter("core_pool_tasks_total", "level", level).Add(int64(n))
	if reg != nil && n > 0 {
		inner := fn
		inFlight := reg.Histogram("core_pool_tasks_in_flight", inFlightBuckets)
		fn = func(i int) {
			inFlight.Observe(float64(w.active.Add(1)))
			defer w.active.Add(-1)
			inner(i)
		}
	}
	if n <= 1 || cap(w.sem) == 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	poolWait := reg.Histogram("core_pool_wait_ms", obs.LatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		var submitted time.Time
		if reg != nil {
			submitted = time.Now()
		}
		select {
		case w.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer func() { <-w.sem; wg.Done() }()
				if reg != nil {
					poolWait.Observe(float64(time.Since(submitted)) / float64(time.Millisecond))
				}
				fn(i)
			}(i)
		default:
			// Pool saturated: the caller is the worker, at zero wait.
			poolWait.Observe(0)
			fn(i)
		}
	}
	wg.Wait()
}

// AppRun bundles every artifact the pipeline produces for one application.
type AppRun struct {
	App    corpus.App
	ID     *Identification
	Dyn    *DynamicResult
	Static *StaticResult
}

// CorpusRun is the merged outcome of running the full pipeline — both
// workflows plus the corpus-wide IF analysis — over a set of applications.
// Every field is deterministic: identical at any Options.Workers setting.
type CorpusRun struct {
	// Apps holds the per-application results in input order.
	Apps []AppRun
	// IFRatios and IFReports are the corpus-wide retry-ratio analysis
	// (§3.2.2) over all identifications.
	IFRatios  []sast.ExceptionRatio
	IFReports []sast.IFReport
	// Usage is the total simulated-LLM traffic of the run.
	Usage llm.Usage
	// Degraded marks a run that hit a backend outage: at least one file
	// carries an "outage" degradation record, so LLM-dependent results
	// under-report by construction and consumers must not compare them
	// against healthy-run baselines. Brown-outs the resilience stack
	// absorbed (retried transients, per-file degradations of other kinds)
	// do not set it; the per-file records in Identification.Degraded do.
	Degraded bool
}

// RunCorpus fans the full pipeline out over the given applications on the
// worker pool and merges the results deterministically: per-app results
// are stored in input order, the IF analysis consumes identifications in
// input order, and total usage is an order-independent sum. The first
// error in input order aborts the run.
func (w *Wasabi) RunCorpus(apps []corpus.App) (*CorpusRun, error) {
	csp := w.obs.Trc().Start("corpus", "pipeline")
	defer csp.End()
	// Load every app before the fan-out, so a replayable LLM router can
	// settle the whole run's admissions up front in (app, file) order.
	snaps := make([]*source.Snapshot, len(apps))
	// The rest of the run's spans: the IF stage, and per app its own,
	// its three stages and a review per file (plus any injection entry
	// a dynamic miss runs, which the tracer records beyond this).
	spans := 1
	for i, app := range apps {
		snap, err := w.load(app)
		if err != nil {
			return nil, err
		}
		snaps[i] = snap
		spans += 4 + len(snap.Files)
	}
	w.obs.Trc().Reserve(spans)
	w.llm.StartRun(snaps)
	runs := make([]AppRun, len(apps))
	errs := make([]error, len(apps))
	w.parallelFor("apps", len(apps), func(i int) {
		app := apps[i]
		asp := w.obs.Trc().Start(appMemoOf(app, snaps[i]).names.app, "app", "parent", "corpus")
		defer asp.End()
		id, err := w.identify(app, snaps[i], i)
		if err != nil {
			errs[i] = err
			return
		}
		dyn, err := w.RunDynamic(app, id)
		if err != nil {
			errs[i] = err
			return
		}
		runs[i] = AppRun{App: app, ID: id, Dyn: dyn, Static: w.RunStatic(app, id)}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cr := &CorpusRun{Apps: runs}
	ids := make([]*Identification, len(runs))
	for i := range runs {
		ids[i] = runs[i].ID
	}
	cr.IFRatios, cr.IFReports = w.RunIFAnalysis(ids)
	for _, ar := range runs {
		cr.Usage.Add(ar.Static.Usage)
		for _, d := range ar.ID.Degraded {
			if d.Reason == llm.DegradedOutage {
				cr.Degraded = true
			}
		}
	}
	return cr, nil
}

// DegradedFiles flattens every application's degradation records in input
// (app, file) order.
func (c *CorpusRun) DegradedFiles() []DegradedFile {
	var out []DegradedFile
	for _, ar := range c.Apps {
		out = append(out, ar.ID.Degraded...)
	}
	return out
}

// SortReports orders oracle reports by CompareReports — a total order
// over distinct reports, so the result is the same no matter what
// order the input arrived in.
func SortReports(reports []oracle.Report) {
	// slices.SortFunc, not sort.Slice, whose reflective swapper
	// allocates on every call.
	slices.SortFunc(reports, func(a, b oracle.Report) int { return CompareReports(&a, &b) })
}

// CompareReports orders two reports by (app, coordinator, kind, group
// key, test).
func CompareReports(a, b *oracle.Report) int {
	if c := strings.Compare(a.App, b.App); c != 0 {
		return c
	}
	if c := strings.Compare(a.Coordinator, b.Coordinator); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.Kind), string(b.Kind)); c != 0 {
		return c
	}
	if c := strings.Compare(a.GroupKey, b.GroupKey); c != 0 {
		return c
	}
	return strings.Compare(a.Test, b.Test)
}

// MergedReports flattens every application's deduplicated dynamic reports
// into one slice in canonical (app, coordinator, kind) order — the
// deterministic reducer consumers print or diff.
func (c *CorpusRun) MergedReports() []oracle.Report {
	var out []oracle.Report
	for _, ar := range c.Apps {
		out = append(out, ar.Dyn.Reports...)
	}
	SortReports(out)
	return out
}
