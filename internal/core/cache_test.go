package core_test

// cache_test.go exercises the pipeline against the content-addressed
// cache (internal/cache): a warm run over an unchanged corpus must
// produce the byte-identical canonical report while spending zero fresh
// LLM tokens, and touching one source file must re-review exactly that
// file. The test lives in package core_test because it asserts on the
// canonical JSON document, and internal/report imports internal/core.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/report"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// copyApp clones the app's source directory into a temp dir so the test
// can edit files without touching the real corpus. Suite and Manifest
// carry over unchanged — they are code, not files.
func copyApp(t *testing.T, code string) corpus.App {
	t.Helper()
	app, err := corpus.ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	entries, err := os.ReadDir(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(app.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	app.Dir = dir
	return app
}

// appSnapshot loads the app's source files as the pipeline's snapshot
// store sees them.
func appSnapshot(t *testing.T, app corpus.App) *source.Snapshot {
	t.Helper()
	snap, err := source.NewStore(nil).Load(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// runOnce executes a single-app corpus run against the shared cache and
// returns the canonical report bytes and the run's fresh LLM usage. Each
// run gets its own observer so llm_tokens_in_total is per-run.
func runOnce(t *testing.T, app corpus.App, ca *cache.Cache, workers int) ([]byte, llm.Usage, obs.Snapshot) {
	t.Helper()
	_, data, fresh, snap := runWith(t, []corpus.App{app}, ca, nil, workers)
	return data, fresh, snap
}

// runWith executes one corpus run against the shared cache with reviews
// routed over backends (nil: no router), returning the run, its
// canonical report bytes, its fresh LLM usage and its own metrics.
func runWith(t *testing.T, apps []corpus.App, ca *cache.Cache, backends []llm.BackendSpec, workers int) (*core.CorpusRun, []byte, llm.Usage, obs.Snapshot) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Workers = workers
	opts.Cache = ca
	opts.Obs = obs.New()
	opts.LLM.Backends = backends
	w := core.New(opts)
	cr, err := w.RunCorpus(apps)
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.Marshal(report.Build(cr))
	if err != nil {
		t.Fatal(err)
	}
	return cr, data, w.LLMUsage(), opts.Obs.Reg().Snapshot()
}

// delta subtracts two cache stats snapshots field-wise.
func delta(after, before cache.Stats) cache.Stats {
	d := cache.Stats{Hits: map[string]int64{}, Misses: map[string]int64{}}
	for k, v := range after.Hits {
		d.Hits[k] = v - before.Hits[k]
	}
	for k, v := range after.Misses {
		d.Misses[k] = v - before.Misses[k]
	}
	d.DiskLoads = after.DiskLoads - before.DiskLoads
	return d
}

// TestWarmRunByteIdenticalZeroSpend is the cache's core contract, pinned
// across worker counts: cold run populates, warm run replays — same
// bytes out, zero fresh tokens in — and a single-file edit invalidates
// exactly that file's review.
func TestWarmRunByteIdenticalZeroSpend(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			app := copyApp(t, "HD")
			files := appSnapshot(t, app).Files
			nFiles := int64(len(files))
			if nFiles == 0 {
				t.Fatal("copied app has no source files")
			}

			ca, err := cache.New(cache.Options{})
			if err != nil {
				t.Fatal(err)
			}

			// Cold: every review and the analysis miss, then populate.
			cold, coldFresh, _ := runOnce(t, app, ca, workers)
			if coldFresh.TokensIn == 0 || coldFresh.Calls == 0 {
				t.Fatal("cold run spent nothing; cache cannot have been exercised")
			}
			st0 := ca.Stats()
			if st0.Hits[cache.StageReview] != 0 || st0.Misses[cache.StageReview] != nFiles {
				t.Fatalf("cold review hits/misses = %d/%d, want 0/%d",
					st0.Hits[cache.StageReview], st0.Misses[cache.StageReview], nFiles)
			}
			if st0.Misses[cache.StageAnalysis] != 1 {
				t.Fatalf("cold analysis misses = %d, want 1", st0.Misses[cache.StageAnalysis])
			}

			// Warm: byte-identical report, zero fresh spend, all hits.
			warm, warmFresh, snap := runOnce(t, app, ca, workers)
			if !bytes.Equal(cold, warm) {
				t.Fatalf("warm report differs from cold:\ncold %d bytes, warm %d bytes", len(cold), len(warm))
			}
			if warmFresh != (llm.Usage{}) {
				t.Fatalf("warm run spent fresh LLM traffic: %+v", warmFresh)
			}
			if got := snap.Counter("llm_tokens_in_total"); got != 0 {
				t.Fatalf("warm llm_tokens_in_total = %d, want 0", got)
			}
			d := delta(ca.Stats(), st0)
			if d.Hits[cache.StageReview] != nFiles || d.Misses[cache.StageReview] != 0 {
				t.Fatalf("warm review hits/misses = %d/%d, want %d/0",
					d.Hits[cache.StageReview], d.Misses[cache.StageReview], nFiles)
			}
			if d.Hits[cache.StageAnalysis] != 1 || d.Misses[cache.StageAnalysis] != 0 {
				t.Fatalf("warm analysis hits/misses = %d/%d, want 1/0",
					d.Hits[cache.StageAnalysis], d.Misses[cache.StageAnalysis])
			}

			// Touch one file: exactly one review re-runs; the directory
			// manifest moved, so the static analysis re-runs too.
			touched := files[0].Path
			src, err := os.ReadFile(touched)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(touched, append(src, []byte("\n// touched by cache_test\n")...), 0o644); err != nil {
				t.Fatal(err)
			}
			st1 := ca.Stats()
			_, editFresh, _ := runOnce(t, app, ca, workers)
			d = delta(ca.Stats(), st1)
			if d.Hits[cache.StageReview] != nFiles-1 || d.Misses[cache.StageReview] != 1 {
				t.Fatalf("post-edit review hits/misses = %d/%d, want %d/1",
					d.Hits[cache.StageReview], d.Misses[cache.StageReview], nFiles-1)
			}
			if d.Misses[cache.StageAnalysis] != 1 {
				t.Fatalf("post-edit analysis misses = %d, want 1", d.Misses[cache.StageAnalysis])
			}
			if editFresh.TokensIn == 0 {
				t.Fatal("edited file was not re-reviewed")
			}
			if editFresh.TokensIn >= coldFresh.TokensIn {
				t.Fatalf("single-file edit re-spent the whole corpus: %d of %d tokens",
					editFresh.TokensIn, coldFresh.TokensIn)
			}
		})
	}
}

// TestDiskTierSurvivesRestart replays a corpus through a fresh cache
// instance backed by the same directory — the process-restart path.
// Each runOnce builds a fresh snapshot store too, so the warm run is a
// true cold process over a warm disk: every review, every extraction
// fact and the app's dynamic run must come from disk, the analysis (a
// memory-only merge of those facts) re-runs without parsing anything,
// fresh spend stays zero and no injection run executes.
func TestDiskTierSurvivesRestart(t *testing.T) {
	app := copyApp(t, "HD")
	dir := t.TempDir()
	files := appSnapshot(t, app).Files
	nFiles := int64(len(files))

	c1, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, _, _ := runOnce(t, app, c1, 2)

	c2, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, fresh, snap := runOnce(t, app, c2, 2)
	if !bytes.Equal(cold, warm) {
		t.Fatal("restarted warm report differs from cold")
	}
	if fresh != (llm.Usage{}) {
		t.Fatalf("restarted warm run spent fresh LLM traffic: %+v", fresh)
	}
	st := c2.Stats()
	if st.Hits[cache.StageReview] != nFiles || st.Hits[cache.StageFacts] != nFiles {
		t.Fatalf("restart hits review/facts = %d/%d, want %d/%d",
			st.Hits[cache.StageReview], st.Hits[cache.StageFacts], nFiles, nFiles)
	}
	if st.Hits[cache.StageDynamic] != 1 || st.Misses[cache.StageDynamic] != 0 {
		t.Fatalf("restart dynamic hits/misses = %d/%d, want 1/0",
			st.Hits[cache.StageDynamic], st.Misses[cache.StageDynamic])
	}
	if want := st.Hits[cache.StageReview] + st.Hits[cache.StageFacts] + st.Hits[cache.StageDynamic]; st.DiskLoads != want {
		t.Fatalf("disk loads = %d, want %d (every review, facts and dynamic hit read through)",
			st.DiskLoads, want)
	}
	if st.Misses[cache.StageAnalysis] != 1 {
		t.Fatalf("analysis misses = %d, want 1 (memory-only merge tier)", st.Misses[cache.StageAnalysis])
	}
	// The restart-warm proof: the static tier rebuilt from portable
	// facts, so the new process parsed and extracted nothing.
	if got := snap.Counter("source_parse_total"); got != 0 {
		t.Fatalf("restart-warm run parsed %d files, want 0", got)
	}
	if got := snap.Counter("source_derived_computes_total", "kind", sast.ExtractKind); got != 0 {
		t.Fatalf("restart-warm run extracted %d files, want 0", got)
	}
	if got := snap.Counter("source_derived_hydrations_total", "kind", sast.ExtractKind); got != nFiles {
		t.Fatalf("restart-warm run hydrated %d facts, want %d", got, nFiles)
	}
	// The same build ran these injection runs before the restart, so
	// the dynamic tier replays them from disk and none executes.
	if got := snap.Counter("core_injection_runs_total", "app", app.Code); got != 0 {
		t.Fatalf("restart-warm run executed %d injection runs, want 0", got)
	}
	if st.DiskEntries == 0 || st.DiskBytes == 0 {
		t.Fatalf("restarted cache reports empty disk tier: %d entries / %d bytes",
			st.DiskEntries, st.DiskBytes)
	}

	// A single-file edit after restart costs exactly 1 parse /
	// 1 extraction / 1 review miss — the incremental contract holds
	// across process boundaries.
	touched := files[0].Path
	src, err := os.ReadFile(touched)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(touched, append(src, []byte("\n// touched by cache_test\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	st1 := c2.Stats()
	_, _, editSnap := runOnce(t, app, c2, 2)
	d := delta(c2.Stats(), st1)
	if got := editSnap.Counter("source_parse_total"); got != 1 {
		t.Fatalf("post-restart edit parsed %d files, want 1", got)
	}
	if got := editSnap.Counter("source_derived_computes_total", "kind", sast.ExtractKind); got != 1 {
		t.Fatalf("post-restart edit extracted %d files, want 1", got)
	}
	if d.Misses[cache.StageReview] != 1 || d.Hits[cache.StageReview] != nFiles-1 {
		t.Fatalf("post-restart edit review hits/misses = %d/%d, want %d/1",
			d.Hits[cache.StageReview], d.Misses[cache.StageReview], nFiles-1)
	}
}

// TestReviewCacheServesEveryTopology pins the one review rule: under
// any topology a cache hit needs no delivery, a miss is delivered, and
// only a delivered, non-degraded answer is stored. A replayable run
// settles every file's delivery before any review runs, so a hit shifts
// no later grant: the warm report is the cold one byte for byte at any
// worker count, spends nothing, and degraded files stay degraded.
func TestReviewCacheServesEveryTopology(t *testing.T) {
	var apps []corpus.App
	for _, code := range []string{"HD", "HB", "CA"} {
		app, err := corpus.ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	// One cache serves every topology in turn. The topology is part of
	// the review key, so no cold run sees another topology's entries.
	ca, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec     string
		degrades bool
	}{
		{"sim=sim:light", false},
		{"sim=sim:heavy,malformed=7", true},
		{"sim=sim:outage-after=12", true},
		{"p=sim:outage;s=sim:light", false},
	} {
		t.Run(c.spec, func(t *testing.T) {
			specs, err := llm.ParseBackends(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			st := ca.Stats()
			coldRun, cold, _, coldSnap := runWith(t, apps, ca, specs, 2)
			if d := delta(ca.Stats(), st); d.Hits[cache.StageReview] != 0 {
				t.Fatalf("cold run hit %d reviews stored under another topology", d.Hits[cache.StageReview])
			}
			var delivered, degraded int64
			for _, ar := range coldRun.Apps {
				for _, rev := range ar.ID.Reviews {
					switch {
					case rev.Degraded:
						degraded++
					case rev.Backend == "":
						t.Fatalf("cold review of %s names no backend", rev.File)
					default:
						delivered++
					}
				}
			}
			if (degraded > 0) != c.degrades {
				t.Fatalf("%d degraded files, want degrades=%v", degraded, c.degrades)
			}
			for _, workers := range []int{1, 4} {
				st := ca.Stats()
				warmRun, warm, _, warmSnap := runWith(t, apps, ca, specs, workers)
				if !bytes.Equal(cold, warm) {
					t.Fatalf("workers=%d: warm report differs from cold (%d vs %d bytes)", workers, len(warm), len(cold))
				}
				if got := warmSnap.Counter("llm_tokens_in_total"); got != 0 {
					t.Fatalf("workers=%d: warm llm_tokens_in_total = %d, want 0", workers, got)
				}
				d := delta(ca.Stats(), st)
				if d.Hits[cache.StageReview] != delivered || d.Misses[cache.StageReview] != degraded {
					t.Fatalf("workers=%d: warm review hits/misses = %d/%d, want %d/%d (delivered/degraded)",
						workers, d.Hits[cache.StageReview], d.Misses[cache.StageReview], delivered, degraded)
				}
				for _, name := range []string{"llm_transport_faults_total", "llm_degraded_reviews_total"} {
					if got, want := counterFamily(warmSnap, name), counterFamily(coldSnap, name); got != want {
						t.Errorf("workers=%d: warm %s = %s, cold %s", workers, name, got, want)
					}
				}
				for _, ar := range warmRun.Apps {
					for _, rev := range ar.ID.Reviews {
						if !rev.Degraded && (rev.Retries != 0 || rev.Backend != "" || rev.Shared) {
							t.Fatalf("memory-tier hit for %s carries routing facts: retries=%d backend=%q shared=%v",
								rev.File, rev.Retries, rev.Backend, rev.Shared)
						}
					}
				}
			}
		})
	}

	// A live topology routes on arrival; a warm run never reaches it.
	t.Run("live", func(t *testing.T) {
		tr := &countingTransport{}
		specs := []llm.BackendSpec{{Name: "live", Kind: "sim", Transport: tr}}
		_, cold, _, _ := runWith(t, apps, ca, specs, 2)
		if tr.calls.Load() == 0 {
			t.Fatal("cold live run made no backend call")
		}
		before := tr.calls.Load()
		_, warm, _, _ := runWith(t, apps, ca, specs, 4)
		if !bytes.Equal(cold, warm) {
			t.Fatal("warm live report differs from cold")
		}
		if got := tr.calls.Load() - before; got != 0 {
			t.Fatalf("warm live run made %d backend calls, want 0", got)
		}
	})
}

// countingTransport is a live backend that answers every call and
// counts them.
type countingTransport struct{ calls atomic.Int64 }

func (c *countingTransport) Do(context.Context, llm.Call) error {
	c.calls.Add(1)
	return nil
}

// counterFamily renders every labelled value of one counter family.
func counterFamily(snap obs.Snapshot, name string) string {
	var b strings.Builder
	for _, c := range snap.Counters {
		if c.Name == name {
			fmt.Fprintf(&b, "%v=%d ", c.Labels, c.Value)
		}
	}
	return b.String()
}

// TestMemoryTierKeepsNewestVersions rewrites every file of an app
// between runs on one cache: the memory tier keeps the reviews, facts
// and analyses of the newest source.DefaultKeepGenerations versions,
// so it stops growing once that many versions exist, and every
// rewrite still reviews every file afresh.
func TestMemoryTierKeepsNewestVersions(t *testing.T) {
	app := copyApp(t, "HD")
	files := appSnapshot(t, app).Files
	ca, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var entries []int
	for v := 0; v < source.DefaultKeepGenerations+2; v++ {
		for _, f := range files {
			src, err := os.ReadFile(f.Path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(f.Path, fmt.Appendf(src, "\n// version %d\n", v), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st0 := ca.Stats()
		runOnce(t, app, ca, 2)
		if d := delta(ca.Stats(), st0); d.Misses[cache.StageReview] != int64(len(files)) {
			t.Fatalf("version %d: review misses = %d, want %d", v, d.Misses[cache.StageReview], len(files))
		}
		entries = append(entries, ca.Stats().Entries)
	}
	k := source.DefaultKeepGenerations
	if entries[k-1] <= entries[0] {
		t.Fatalf("entries per version %v: the first %d versions should all be kept", entries, k)
	}
	for v := k; v < len(entries); v++ {
		if entries[v] != entries[k-1] {
			t.Fatalf("entries per version %v: the memory tier grew past the newest %d versions", entries, k)
		}
	}
}
