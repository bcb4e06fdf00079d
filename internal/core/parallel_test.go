package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wasabi/internal/apps/corpus"
)

func TestParallelForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{0, 1, 2, 7, 100} {
			w := New(optionsWithWorkers(workers))
			counts := make([]int32, n)
			w.parallelFor("test", n, func(i int) { atomic.AddInt32(&counts[i], 1) })
			for i, c := range counts {
				if c != 1 {
					t.Errorf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestParallelForNestedStaysBounded checks the bound parallelFor
// promises under nesting: bodies execute on at most Workers goroutines.
// A body nested inline in another body runs on the same goroutine, so
// the test counts distinct goroutines with a body on their stack, not
// bodies.
func TestParallelForNestedStaysBounded(t *testing.T) {
	const workers = 4
	w := New(optionsWithWorkers(workers))
	var mu sync.Mutex
	depth := map[string]int{} // goroutine id → bodies on its stack
	peak := 0
	enter := func() (leave func()) {
		id := goroutineID()
		mu.Lock()
		depth[id]++
		peak = max(peak, len(depth))
		mu.Unlock()
		return func() {
			mu.Lock()
			if depth[id]--; depth[id] == 0 {
				delete(depth, id)
			}
			mu.Unlock()
		}
	}
	w.parallelFor("test", 8, func(int) {
		defer enter()()
		w.parallelFor("test", 8, func(int) {
			defer enter()()
			time.Sleep(time.Millisecond)
		})
	})
	if peak > workers {
		t.Errorf("bodies ran on %d goroutines at once, want at most Workers=%d", peak, workers)
	}
	if peak < 2 {
		t.Errorf("bodies ran on %d goroutine at most; the pool never fanned out", peak)
	}
}

// goroutineID returns the calling goroutine's id from its stack header
// ("goroutine N [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

func optionsWithWorkers(n int) Options {
	o := DefaultOptions()
	o.Workers = n
	return o
}

// renderCorpusRun flattens every deterministic artifact of a corpus run
// into one string, so two runs can be compared byte-for-byte.
func renderCorpusRun(cr *CorpusRun) string {
	var b strings.Builder
	for _, ar := range cr.Apps {
		fmt.Fprintf(&b, "== %s\n", ar.App.Code)
		for _, s := range ar.ID.Structures {
			fmt.Fprintf(&b, "structure %+v\n", s)
		}
		fmt.Fprintf(&b, "ablation %d %d truncated %v\n",
			ar.ID.CandidateLoops, ar.ID.KeywordedLoops, ar.ID.TruncatedFiles)
		d := ar.Dyn
		fmt.Fprintf(&b, "dyn %d/%d tests %d/%d structures stripped=%d plan=%d runs=%d/%d failed=%d\n",
			d.TestsCoveringRetry, d.TestsTotal, d.StructuresTested, d.StructuresTotal,
			d.StrippedOverrides, d.PlanEntries, d.PlannedRuns, d.NaiveRuns, d.InjectionRunsFailed)
		for _, r := range d.Reports {
			fmt.Fprintf(&b, "report %+v\n", r)
		}
		for _, r := range ar.Static.WhenReports {
			fmt.Fprintf(&b, "when %+v\n", r)
		}
		fmt.Fprintf(&b, "usage %+v\n", ar.Static.Usage)
	}
	for _, r := range cr.IFRatios {
		fmt.Fprintf(&b, "ratio %+v\n", r)
	}
	for _, r := range cr.IFReports {
		fmt.Fprintf(&b, "if %+v\n", r)
	}
	fmt.Fprintf(&b, "total usage %+v\n", cr.Usage)
	for _, r := range cr.MergedReports() {
		fmt.Fprintf(&b, "merged %+v\n", r)
	}
	return b.String()
}

// TestParallelCorpusMatchesSequential is the determinism acceptance test:
// the parallel runner (workers >= 4) must produce byte-identical results
// to the sequential runner (workers = 1) over the full 8-app corpus —
// reports, statistics, IF analysis, and usage accounting alike.
func TestParallelCorpusMatchesSequential(t *testing.T) {
	apps := corpus.Apps()
	run := func(workers int) string {
		t.Helper()
		cr, err := New(optionsWithWorkers(workers)).RunCorpus(apps)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return renderCorpusRun(cr)
	}
	seq := run(1)
	for _, workers := range []int{4, 8} {
		par := run(workers)
		if par == seq {
			continue
		}
		seqLines, parLines := strings.Split(seq, "\n"), strings.Split(par, "\n")
		for i := 0; i < len(seqLines) || i < len(parLines); i++ {
			var a, b string
			if i < len(seqLines) {
				a = seqLines[i]
			}
			if i < len(parLines) {
				b = parLines[i]
			}
			if a != b {
				t.Fatalf("workers=%d diverges from sequential at line %d:\n  seq: %s\n  par: %s", workers, i, a, b)
			}
		}
	}
}

// TestMergedReportsCanonicalOrder checks the reducer's order is total and
// stable: sorted by (app, coordinator, kind).
func TestMergedReportsCanonicalOrder(t *testing.T) {
	cr, err := New(DefaultOptions()).RunCorpus(corpus.Apps())
	if err != nil {
		t.Fatal(err)
	}
	merged := cr.MergedReports()
	if len(merged) == 0 {
		t.Fatal("no merged reports")
	}
	for i := 1; i < len(merged); i++ {
		a, b := merged[i-1], merged[i]
		ka := a.App + "|" + a.Coordinator + "|" + string(a.Kind) + "|" + a.GroupKey + "|" + a.Test
		kb := b.App + "|" + b.Coordinator + "|" + string(b.Kind) + "|" + b.GroupKey + "|" + b.Test
		if ka > kb {
			t.Fatalf("merged reports out of order at %d: %q > %q", i, ka, kb)
		}
	}
}

// TestRunCorpusPropagatesErrors checks the first error in input order
// aborts the run.
func TestRunCorpusPropagatesErrors(t *testing.T) {
	apps := corpus.Apps()
	apps[2].Dir = "/nonexistent-wasabi-dir"
	_, err := New(optionsWithWorkers(4)).RunCorpus(apps)
	if err == nil {
		t.Fatal("expected an error for a missing app directory")
	}
	if !strings.Contains(err.Error(), apps[2].Code) {
		t.Errorf("error should name the failing app %s: %v", apps[2].Code, err)
	}
}

// TestAnalyzeConsistentWithRunCorpus guards the facade path: per-app
// dynamic reports from RunCorpus equal those from individual runs.
func TestAnalyzeConsistentWithRunCorpus(t *testing.T) {
	apps := corpus.Apps()[:3]
	cr, err := New(optionsWithWorkers(8)).RunCorpus(apps)
	if err != nil {
		t.Fatal(err)
	}
	for i, app := range apps {
		w := New(optionsWithWorkers(1))
		id, err := w.Identify(app)
		if err != nil {
			t.Fatal(err)
		}
		dyn, err := w.RunDynamic(app, id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%+v", cr.Apps[i].Dyn.Reports), fmt.Sprintf("%+v", dyn.Reports); got != want {
			t.Errorf("%s: corpus-run reports differ from solo run:\n%s\nvs\n%s", app.Code, got, want)
		}
	}
}
