package cache_test

// shared_test.go checks the memory tier's contract end to end: every
// hit returns the one stored value, so no pipeline reader may mutate
// it, and retry facts never enter it. The tests live in package cache_test because it drives
// internal/core and internal/report, which import internal/cache.

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/report"
	"wasabi/internal/source"
)

// TestSharedValuesStayImmutable runs the seed corpus cold through a
// disk-backed cache, then twice warm and concurrently over the same
// cache and snapshot store, building the canonical report and the
// merged reports each time. Afterwards every memory-tier value must
// re-encode to exactly the bytes of its disk entry: no caller mutated a
// shared value.
func TestSharedValuesStayImmutable(t *testing.T) {
	ca, err := cache.New(cache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	store := source.NewStore(nil)
	run := func() []byte {
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.Cache = ca
		opts.Source = store
		cr, err := core.New(opts).RunCorpus(corpus.Apps())
		if err != nil {
			t.Error(err)
			return nil
		}
		cr.MergedReports()
		data, err := report.Marshal(report.Build(cr))
		if err != nil {
			t.Error(err)
		}
		return data
	}
	cold := run()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if warm := run(); !bytes.Equal(warm, cold) {
				t.Error("warm report differs from cold")
			}
		}()
	}
	wg.Wait()
	if st := ca.Stats(); st.Misses[cache.StageDynamic] != int64(len(corpus.Apps())) ||
		st.Hits[cache.StageDynamic] != 2*int64(len(corpus.Apps())) {
		t.Fatalf("dynamic hits/misses = %d/%d, want every warm run served from memory",
			st.Hits[cache.StageDynamic], st.Misses[cache.StageDynamic])
	}

	enc, err := ca.EncodedEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) == 0 {
		t.Fatal("no disk-backed entries in memory")
	}
	for key, data := range enc {
		disk, err := os.ReadFile(ca.EntryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, disk) {
			t.Errorf("entry %s was mutated after it was stored:\nmemory %s\ndisk   %s", key, data, disk)
		}
	}
}

// TestFactsStayOutOfMemory runs the seed corpus cold, warm and after a
// restart over a disk-backed cache: the snapshot file's memo is the
// retry facts' only memory tier, so no run installs facts in the
// cache's memory, and the restart hydrates every file's facts from
// disk. A memory-only cache has no facts stage at all.
func TestFactsStayOutOfMemory(t *testing.T) {
	run := func(ca *cache.Cache, store *source.Store) {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.Cache = ca
		opts.Source = store
		if _, err := core.New(opts).RunCorpus(corpus.Apps()); err != nil {
			t.Fatal(err)
		}
		if n := ca.FactsInMemory(); n != 0 {
			t.Fatalf("%d facts values in the cache's memory tier, want 0", n)
		}
	}
	files := 0
	for _, app := range corpus.Apps() {
		snap, err := source.NewStore(nil).Load(app.Dir)
		if err != nil {
			t.Fatal(err)
		}
		files += len(snap.Files)
	}

	dir := t.TempDir()
	ca, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store := source.NewStore(nil)
	run(ca, store) // cold
	run(ca, store) // warm
	if st := ca.Stats(); st.Hits[cache.StageFacts] != 0 || st.Misses[cache.StageFacts] != int64(files) {
		t.Fatalf("cold+warm facts hits/misses = %d/%d, want 0/%d (the memo serves the warm run)",
			st.Hits[cache.StageFacts], st.Misses[cache.StageFacts], files)
	}
	restarted, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	run(restarted, source.NewStore(nil))
	if st := restarted.Stats(); st.Hits[cache.StageFacts] != int64(files) || st.Misses[cache.StageFacts] != 0 {
		t.Fatalf("restart facts hits/misses = %d/%d, want %d/0 from disk",
			st.Hits[cache.StageFacts], st.Misses[cache.StageFacts], files)
	}

	mem, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run(mem, source.NewStore(nil))
	if st := mem.Stats(); st.Hits[cache.StageFacts] != 0 || st.Misses[cache.StageFacts] != 0 {
		t.Fatalf("memory-only facts hits/misses = %d/%d, want 0/0",
			st.Hits[cache.StageFacts], st.Misses[cache.StageFacts])
	}
}
