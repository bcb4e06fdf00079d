package cache_test

// tracking_test.go checks that Supersede bounds every entry the
// pipeline puts in the memory tier: each one sits on a lineage, so a
// newer version of its input drops it. The test lives in package
// cache_test because it drives internal/core, which imports
// internal/cache.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/source"
)

// seedCopy copies a seed app's files into a temporary directory and
// returns the app pointed at it, with its source paths in sorted order.
func seedCopy(t *testing.T, code string) (corpus.App, []string) {
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
	var paths []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(app.Dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, e.Name())
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if source.IsSourceFile(e.Name()) {
			paths = append(paths, p)
		}
	}
	app.Dir = dir
	return app, paths
}

// edit appends a distinct comment to path: a new content version that
// no analysis reads differently.
func edit(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, "\n// edit %d\n", n); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryTierTracksEveryEntry holds each stage's entries to their
// lineage's newest source.DefaultKeepGenerations versions: dynamic runs
// as an app's location list changes, facts stored by an analysis that
// then fails, and every entry of concurrent jobs over changing files.
func TestMemoryTierTracksEveryEntry(t *testing.T) {
	const keep = source.DefaultKeepGenerations

	t.Run("dynamic location lists", func(t *testing.T) {
		if cache.BuildID() == "" {
			t.Skip("no build identity: dynamic runs are not memoised")
		}
		app, err := corpus.ByCode("HB")
		if err != nil {
			t.Fatal(err)
		}
		ca, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.Cache = ca
		w := core.New(opts)
		id, err := w.Identify(app)
		if err != nil {
			t.Fatal(err)
		}
		// dropped trims the last n triplets, as a changed identification
		// would: each list is a new version of the app's dynamic run.
		dropped := func(n int) *core.Identification {
			cp := *id
			cp.Structures = append([]core.Structure(nil), id.Structures...)
			for i := len(cp.Structures) - 1; i >= 0 && n > 0; i-- {
				s := &cp.Structures[i]
				k := min(n, len(s.Triplets))
				s.Triplets = s.Triplets[:len(s.Triplets)-k]
				n -= k
			}
			if n > 0 {
				t.Fatal("too few triplets to drop")
			}
			return &cp
		}
		before := ca.Stats().Entries
		versions := []*core.Identification{id, dropped(1), dropped(2)}
		for _, v := range versions {
			if _, err := w.RunDynamic(app, v); err != nil {
				t.Fatal(err)
			}
		}
		if got := ca.Stats().Entries - before; got != keep {
			t.Fatalf("%d location lists left %d dynamic entries, want the newest %d", len(versions), got, keep)
		}
		for _, v := range versions[len(versions)-keep:] {
			hits := ca.Stats().Hits[cache.StageDynamic]
			if _, err := w.RunDynamic(app, v); err != nil {
				t.Fatal(err)
			}
			if ca.Stats().Hits[cache.StageDynamic] == hits {
				t.Fatal("a kept location list missed")
			}
		}
		if got := ca.UntrackedEntries(); len(got) != 0 {
			t.Fatalf("untracked entries: %v", got)
		}
	})

	t.Run("facts of a failed analysis", func(t *testing.T) {
		app, paths := seedCopy(t, "HD")
		broken := filepath.Join(app.Dir, "zz_broken.go")
		if err := os.WriteFile(broken, []byte("package hdfs\n\nfunc (\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		ca, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Cache = ca
		opts.Source = source.NewStore(nil)
		var entries []int
		for n := 0; n <= 4; n++ {
			if n > 0 {
				edit(t, paths[0], n)
			}
			if _, err := core.New(opts).Identify(app); err == nil {
				t.Fatal("an app with an unparseable file identified cleanly")
			}
			entries = append(entries, ca.Stats().Entries)
		}
		for n := keep; n < len(entries); n++ {
			if entries[n] != entries[keep-1] {
				t.Fatalf("entries after each edit = %v, want flat from edit %d on", entries, keep-1)
			}
		}
		if got := ca.UntrackedEntries(); len(got) != 0 {
			t.Fatalf("untracked entries: %v", got)
		}
	})

	t.Run("concurrent jobs over changing files", func(t *testing.T) {
		app, paths := seedCopy(t, "HD")
		ca, err := cache.New(cache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		store := source.NewStore(nil)
		for round := 0; round < 4; round++ {
			for _, p := range paths {
				edit(t, p, round)
			}
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					opts := core.DefaultOptions()
					opts.Workers = 2
					opts.Cache = ca
					opts.Source = store
					if _, err := core.New(opts).RunCorpus([]corpus.App{app}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
		}
		if got := ca.UntrackedEntries(); len(got) != 0 {
			t.Fatalf("untracked entries: %v", got)
		}
		// One review and one facts lineage per file, one analysis and one
		// dynamic lineage for the app.
		if bound := (2*len(paths) + 2) * keep; ca.Stats().Entries > bound {
			t.Fatalf("entries = %d, want at most %d keys per lineage (%d)", ca.Stats().Entries, keep, bound)
		}
	})
}
