package core_test

// dynamic_cache_test.go pins the dynamic tier of the cache: a warm run
// served from a memoised dynamic run yields the byte-identical report
// at zero injection runs, and every input the dynamic run depends on is
// part of its key.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/corpusgen"
	"wasabi/internal/obs"
	"wasabi/internal/report"
)

// generatedApp emits a scale-1 generated corpus and returns its first
// app, whose suite is the spec interpreter.
func generatedApp(t *testing.T) corpus.App {
	t.Helper()
	c, err := corpusgen.Generate(corpusgen.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := corpusgen.Write(c, root, 1); err != nil {
		t.Fatal(err)
	}
	apps, _, err := corpusgen.LoadApps(root)
	if err != nil {
		t.Fatal(err)
	}
	return apps[0]
}

// counterSum sums a counter over all its label sets.
func counterSum(snap obs.Snapshot, name string) int64 {
	var n int64
	for _, c := range snap.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

// uncachedReport runs the app with no cache attached: the reference
// every memoised run must reproduce.
func uncachedReport(t *testing.T, app corpus.App, workers int) []byte {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Workers = workers
	cr, err := core.New(opts).RunCorpus([]corpus.App{app})
	if err != nil {
		t.Fatal(err)
	}
	data, err := report.Marshal(report.Build(cr))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDynamicMemoByteIdentical(t *testing.T) {
	apps := []struct {
		name string
		app  func(*testing.T) corpus.App
	}{
		{"seed", func(t *testing.T) corpus.App { return copyApp(t, "HB") }},
		{"generated", generatedApp},
	}
	for _, a := range apps {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", a.name, workers), func(t *testing.T) {
				app := a.app(t)
				if app.Suite.ID == "" {
					t.Fatalf("%s suite has no ID", app.Code)
				}
				ca, err := cache.New(cache.Options{})
				if err != nil {
					t.Fatal(err)
				}
				cold, _, coldSnap := runOnce(t, app, ca, workers)
				warm, _, warmSnap := runOnce(t, app, ca, workers)
				if !bytes.Equal(cold, warm) {
					t.Fatalf("warm report differs from cold: %d vs %d bytes", len(warm), len(cold))
				}
				if ref := uncachedReport(t, app, workers); !bytes.Equal(cold, ref) {
					t.Fatalf("cached cold report differs from an uncached run: %d vs %d bytes", len(cold), len(ref))
				}
				st := ca.Stats()
				if st.Misses[cache.StageDynamic] != 1 || st.Hits[cache.StageDynamic] != 1 {
					t.Fatalf("dynamic misses/hits = %d/%d, want 1/1",
						st.Misses[cache.StageDynamic], st.Hits[cache.StageDynamic])
				}
				// Counters of executed work count only the cold run's
				// work; per-job result counters count both jobs alike.
				for _, name := range []string{
					"core_injection_runs_total", "fault_injections_total",
				} {
					if counterSum(coldSnap, name) == 0 {
						t.Fatalf("cold %s = 0", name)
					}
					if got := counterSum(warmSnap, name); got != 0 {
						t.Fatalf("warm %s = %d, want 0", name, got)
					}
				}
				if got := warmSnap.Counter("core_pool_tasks_total", "level", "entries"); got != 0 {
					t.Fatalf("warm entry tasks = %d, want 0", got)
				}
				for _, name := range []string{"core_plan_entries_total", "core_distinct_bugs_total"} {
					c, w := counterSum(coldSnap, name), counterSum(warmSnap, name)
					if c == 0 || c != w {
						t.Fatalf("%s cold/warm = %d/%d, want equal and non-zero", name, c, w)
					}
				}
			})
		}
	}

	t.Run("key-sensitivity", func(t *testing.T) {
		app, err := corpus.ByCode("HB")
		if err != nil {
			t.Fatal(err)
		}
		ca, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		base := core.DefaultOptions()
		base.Workers = 2
		base.Cache = ca
		id, err := core.New(base).Identify(app)
		if err != nil {
			t.Fatal(err)
		}
		// dynamic runs RunDynamic under one variant and reports whether
		// it was served from the cache and how many runs it executed.
		dynamic := func(opts core.Options, app corpus.App, id *core.Identification, build *string) (hit bool, runs int64) {
			t.Helper()
			opts.Obs = obs.New()
			w := core.New(opts)
			if build != nil {
				core.SetBuild(w, *build)
			}
			before := ca.Stats().Hits[cache.StageDynamic]
			if _, err := w.RunDynamic(app, id); err != nil {
				t.Fatal(err)
			}
			return ca.Stats().Hits[cache.StageDynamic] > before,
				counterSum(opts.Obs.Reg().Snapshot(), "core_injection_runs_total")
		}
		if hit, _ := dynamic(base, app, id, nil); hit {
			t.Fatal("first run hit an empty cache")
		}
		if hit, runs := dynamic(base, app, id, nil); !hit || runs != 0 {
			t.Fatalf("unchanged inputs: hit=%v runs=%d, want a hit at 0 runs", hit, runs)
		}

		droppedLoc := func() *core.Identification {
			cp := *id
			cp.Structures = append([]core.Structure(nil), id.Structures...)
			// Trim the last structure that has a triplet: which
			// structures have none depends on the LLM's answers.
			for i := len(cp.Structures) - 1; i >= 0; i-- {
				if s := &cp.Structures[i]; len(s.Triplets) > 0 {
					s.Triplets = s.Triplets[:len(s.Triplets)-1]
					return &cp
				}
			}
			t.Fatal("no structure has a triplet to drop")
			return nil
		}()
		otherBuild := "another-build"
		variants := []struct {
			name  string
			opts  func(*core.Options)
			app   func(*corpus.App)
			id    *core.Identification
			build *string
		}{
			{name: "HowK", opts: func(o *core.Options) { o.HowK = 2 }},
			{name: "CapK", opts: func(o *core.Options) { o.CapK = 50 }},
			{name: "oracle cap threshold", opts: func(o *core.Options) { o.Oracle.CapThreshold = 50 }},
			{name: "oracle virtual timeout", opts: func(o *core.Options) { o.Oracle.VirtualTimeout = 10 * time.Minute }},
			{name: "location list", id: droppedLoc},
			{name: "suite ID", app: func(a *corpus.App) { a.Suite.ID = "seed:HB-edited" }},
			{name: "build ID", build: &otherBuild},
		}
		for _, v := range variants {
			opts, a, vid := base, app, id
			if v.opts != nil {
				v.opts(&opts)
			}
			if v.app != nil {
				v.app(&a)
			}
			if v.id != nil {
				vid = v.id
			}
			if hit, runs := dynamic(opts, a, vid, v.build); hit || runs == 0 {
				t.Fatalf("%s changed: hit=%v runs=%d, want a miss that executes", v.name, hit, runs)
			}
			if hit, _ := dynamic(opts, a, vid, v.build); !hit {
				t.Fatalf("%s changed: second run missed, want the new key stored", v.name)
			}
		}

		// Worker count and the oracle's metrics registry are not inputs.
		opts := base
		opts.Workers = 1
		if hit, _ := dynamic(opts, app, id, nil); !hit {
			t.Fatal("a different worker count missed")
		}

		// A run without suite or build identity is never memoised: no
		// lookup, no store, every run executes.
		noBuild := ""
		idless := app
		idless.Suite.ID = ""
		for _, c := range []struct {
			name  string
			app   corpus.App
			build *string
		}{{"ID-less suite", idless, nil}, {"no build identity", app, &noBuild}} {
			before := ca.Stats()
			for i := 0; i < 2; i++ {
				if hit, runs := dynamic(base, c.app, id, c.build); hit || runs == 0 {
					t.Fatalf("%s run %d: hit=%v runs=%d, want an executed run", c.name, i, hit, runs)
				}
			}
			after := ca.Stats()
			if after.Misses[cache.StageDynamic] != before.Misses[cache.StageDynamic] || after.Entries != before.Entries {
				t.Fatalf("%s touched the dynamic tier: misses %d→%d, entries %d→%d", c.name,
					before.Misses[cache.StageDynamic], after.Misses[cache.StageDynamic], before.Entries, after.Entries)
			}
		}
	})
}
