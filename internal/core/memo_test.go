package core_test

// memo_test.go holds the pipeline's derive-once memos (memo.go) to a
// memo-free derivation of the same jobs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/corpusgen"
	"wasabi/internal/errmodel"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/report"
	"wasabi/internal/source"
)

// universe is one state jobs run against: a cache and, when it keeps
// memos, one long-lived snapshot store. The memo-free universe loads
// every job through a fresh store, so no snapshot carries a memo and
// every job derives its identification, its results, its IF analysis
// and its report afresh, and renders the report with report.Marshal,
// not the body kept with it; its cache sees the same operations, so
// both universes count the same events. Stores report into no registry:
// what a long-lived store reuses is not a derivation.
type universe struct {
	// workers is the jobs' Workers setting.
	workers int
	ca      *cache.Cache
	store   *source.Store
	reg     *obs.Registry
	last    *core.CorpusRun
}

func newUniverse(t *testing.T, memo bool) *universe {
	t.Helper()
	reg := obs.NewRegistry()
	ca, err := cache.New(cache.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	u := &universe{workers: 2, ca: ca, reg: reg}
	if memo {
		u.store = source.NewStore(nil)
	}
	return u
}

// jobResult is what a job is compared by.
type jobResult struct {
	report   []byte
	counters map[string]int64 // this job's counter increments
	spans    []string         // "name <- parent" of every span, sorted
}

// job runs one traced job over apps, as the daemon does, and returns
// its report bytes, its counter increments and its span names.
func (u *universe) job(t *testing.T, apps []corpus.App, backends []llm.BackendSpec) jobResult {
	t.Helper()
	before := counters(u.reg)
	store := u.store
	if store == nil {
		store = source.NewStore(nil)
	}
	tr := obs.NewTracer()
	tr.SetRootParent("run")
	opts := core.DefaultOptions()
	opts.Workers = u.workers
	opts.Obs = &obs.Observer{Metrics: u.reg, Tracer: tr}
	opts.Cache = u.ca
	opts.Source = store
	opts.LLM.Backends = backends
	cr, err := core.New(opts).RunCorpus(apps)
	if err != nil {
		t.Fatal(err)
	}
	// The memoized universe serves the daemon's body, kept with its
	// document; the memo-free one renders the document it built.
	doc := report.Build(cr)
	var body []byte
	if u.store != nil {
		body, err = report.Body(cr, doc, 0, "\n")
	} else {
		body, err = report.Marshal(doc)
	}
	if err != nil {
		t.Fatal(err)
	}
	u.last = cr
	res := jobResult{report: body, counters: counters(u.reg)}
	for k, v := range before {
		if res.counters[k] -= v; res.counters[k] == 0 {
			delete(res.counters, k)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Ph string
			Args     map[string]string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			res.spans = append(res.spans, ev.Name+" <- "+ev.Args["parent"])
		}
	}
	slices.Sort(res.spans)
	return res
}

// counters is every counter series of reg by identity.
func counters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range reg.Snapshot().Counters {
		out[fmt.Sprintf("%s%v", c.Name, c.Labels)] = c.Value
	}
	return out
}

// compare runs one job in both universes and fails on any difference.
// It returns the job's report.
func compare(t *testing.T, step string, m, f *universe, apps []corpus.App, backends []llm.BackendSpec) []byte {
	t.Helper()
	got, want := m.job(t, apps, backends), f.job(t, apps, backends)
	if !bytes.Equal(got.report, want.report) {
		t.Fatalf("%s: memoized report differs from the fresh derivation\ngot:\n%s\nwant:\n%s", step, got.report, want.report)
	}
	for k, v := range want.counters {
		if got.counters[k] != v {
			t.Errorf("%s: counter %s = %d, fresh derivation %d", step, k, got.counters[k], v)
		}
	}
	for k, v := range got.counters {
		if _, ok := want.counters[k]; !ok {
			t.Errorf("%s: counter %s = %d, fresh derivation counts nothing", step, k, v)
		}
	}
	if !slices.Equal(got.spans, want.spans) {
		t.Errorf("%s: span names differ from the fresh derivation\ngot:  %v\nwant: %v", step, got.spans, want.spans)
	}
	if t.Failed() {
		t.FailNow()
	}
	return got.report
}

// warmHit asserts that the memoized universe's last job reused the
// identifications and the kept report of the one before.
func warmHit(t *testing.T, step string, prev *core.CorpusRun, m *universe) {
	t.Helper()
	for i := range prev.Apps {
		if m.last.Apps[i].ID != prev.Apps[i].ID || m.last.Apps[i].Dyn != prev.Apps[i].Dyn || m.last.Apps[i].Static != prev.Apps[i].Static {
			t.Fatalf("%s: %s derived its results again on a warm job", step, prev.Apps[i].App.Code)
		}
	}
	if report.Build(m.last) != report.Build(prev) {
		t.Fatalf("%s: the warm job built its document again", step)
	}
}

// TestWarmMemoMatchesFreshDerivation runs the same jobs through a
// universe that keeps memos and one that derives everything afresh,
// and holds report bytes, counter increments and span names equal at
// every step: the seed corpus cold and warm, a generated corpus under
// single-file edits, a revert to a version still cached, and a revert
// to one whose review was evicted and is recomputed.
func TestWarmMemoMatchesFreshDerivation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the seed corpus and a generated corpus")
	}
	t.Run("seed", func(t *testing.T) {
		m, f := newUniverse(t, true), newUniverse(t, false)
		apps := corpus.Apps()
		cold := compare(t, "cold", m, f, apps, nil)
		for i := 0; i < 3; i++ {
			prev := m.last
			if warm := compare(t, fmt.Sprintf("warm %d", i), m, f, apps, nil); !bytes.Equal(warm, cold) {
				t.Fatalf("warm %d: report differs from the cold one", i)
			}
			if i > 0 {
				warmHit(t, fmt.Sprintf("warm %d", i), prev, m)
			}
		}
		// A job over a subset keeps its own document; the full corpus
		// still finds its own afterwards.
		compare(t, "subset", m, f, apps[2:5], nil)
		prev := m.last
		compare(t, "subset again", m, f, apps[2:5], nil)
		warmHit(t, "subset again", prev, m)
		compare(t, "full again", m, f, apps, nil)
	})

	t.Run("generated-edits", func(t *testing.T) {
		root := t.TempDir()
		c, err := corpusgen.Generate(corpusgen.Config{Seed: 11, Scale: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := corpusgen.Write(c, root, 1); err != nil {
			t.Fatal(err)
		}
		gen, _, err := corpusgen.LoadApps(root)
		if err != nil {
			t.Fatal(err)
		}
		apps := gen[:4]
		files, err := filepath.Glob(filepath.Join(apps[1].Dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources in %s: %v", apps[1].Dir, err)
		}
		var target string
		for _, p := range files {
			if source.IsSourceFile(filepath.Base(p)) {
				target = p
				break
			}
		}
		v1, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		write := func(data []byte) {
			t.Helper()
			if err := os.WriteFile(target, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// An edit the analyses do not read: only the file's hash, and
		// so its review key, and its length, which the report's LLM
		// usage counts, change.
		version := func(n int) []byte { return append(bytes.Clone(v1), fmt.Sprintf("// edit %d\n", n)...) }

		m, f := newUniverse(t, true), newUniverse(t, false)
		base := compare(t, "cold", m, f, apps, nil)
		compare(t, "warm", m, f, apps, nil)
		prev := m.last
		compare(t, "warm again", m, f, apps, nil)
		warmHit(t, "warm again", prev, m)
		step := func(name string, data []byte) []byte {
			t.Helper()
			write(data)
			got := compare(t, name, m, f, apps, nil)
			// The first warm job merges the edited file's cached entry,
			// which the cold job's fresh review is not; the next reuses.
			compare(t, name+", warm", m, f, apps, nil)
			prev := m.last
			compare(t, name+", warm again", m, f, apps, nil)
			warmHit(t, name+", warm again", prev, m)
			return got
		}
		step("edit 2", version(2))
		// v1 is still one of the two newest versions: its review, its
		// analysis and its interned file are all still held.
		if got := step("revert to v1", v1); !bytes.Equal(got, base) {
			t.Fatal("revert to v1: report differs from v1's")
		}
		step("edit 3", version(3))
		step("edit 4", version(4))
		// Two newer versions have superseded v1's review and analysis:
		// both are evicted and recomputed.
		before := m.ca.Stats().Misses[cache.StageReview]
		if got := step("revert to evicted v1", v1); !bytes.Equal(got, base) {
			t.Fatal("revert to evicted v1: report differs from v1's")
		}
		if m.ca.Stats().Misses[cache.StageReview] == before {
			t.Fatal("reverting past the kept versions recomputed no review")
		}
	})
}

// toggleTransport is a live backend that is down while down is set.
type toggleTransport struct{ down atomic.Bool }

func (tt *toggleTransport) Do(context.Context, llm.Call) error {
	if tt.down.Load() {
		return errmodel.Newf("BackendOutageException", "llm: endpoint down")
	}
	return nil
}

// TestChaosWarmMemoDegradeThenRecover is TestWarmMemoMatchesFreshDerivation
// under a backend that goes down and comes back: the degraded reviews
// are never stored, so the memo must not serve the degraded merge once
// the backend answers again, and the recovered report must be the
// healthy one.
func TestChaosWarmMemoDegradeThenRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the seed corpus")
	}
	m, f := newUniverse(t, true), newUniverse(t, false)
	// A live router's breaker opens on whichever reviews reach the down
	// backend first, so the jobs run on one worker, in file order.
	m.workers, f.workers = 1, 1
	mt, ft := &toggleTransport{}, &toggleTransport{}
	spec := func(tr llm.Transport) []llm.BackendSpec {
		return []llm.BackendSpec{{Name: "live", Kind: "sim", Transport: tr}}
	}
	apps := corpus.Apps()[:3]
	run := func(step string, down bool) []byte {
		t.Helper()
		mt.down.Store(down)
		ft.down.Store(down)
		got, want := m.job(t, apps, spec(mt)), f.job(t, apps, spec(ft))
		if !bytes.Equal(got.report, want.report) {
			t.Fatalf("%s: memoized report differs from the fresh derivation\ngot:\n%s\nwant:\n%s", step, got.report, want.report)
		}
		if !maps.Equal(got.counters, want.counters) {
			t.Fatalf("%s: counters differ from the fresh derivation\ngot:  %v\nwant: %v", step, got.counters, want.counters)
		}
		if !slices.Equal(got.spans, want.spans) {
			t.Fatalf("%s: span names differ from the fresh derivation", step)
		}
		return got.report
	}
	degraded := run("down", true)
	if !bytes.Contains(degraded, []byte(`"degraded_files"`)) {
		t.Fatal("a job against a down backend reports no degraded file")
	}
	if again := run("still down", true); !bytes.Equal(again, degraded) {
		t.Fatal("a second job against the down backend reports differently")
	}
	healthy := run("recovered", false)
	if bytes.Contains(healthy, []byte(`"degraded_files"`)) {
		t.Fatal("the recovered job still reports degraded files: a degraded merge was served")
	}
	for i := 0; i < 2; i++ {
		if warm := run(fmt.Sprintf("warm %d", i), false); !bytes.Equal(warm, healthy) {
			t.Fatalf("warm %d: report differs from the recovered one", i)
		}
	}
	// Down again: the cached reviews still answer, so nothing degrades.
	if warm := run("down after recovery", true); !bytes.Equal(warm, healthy) {
		t.Fatal("a warm job against a down backend lost the cached reviews")
	}
}
