package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// review builds a distinguishable FileReview fixture.
func review(file string, tokens int64) llm.FileReview {
	return llm.FileReview{
		File:          file,
		Size:          int(tokens),
		PerformsRetry: true,
		Findings: []llm.Finding{{
			Coordinator: "pkg.Type." + file,
			File:        file,
			Mechanism:   "loop",
			HasCap:      true,
		}},
		Spent: llm.Usage{Calls: 3, TokensIn: tokens, CostUSD: float64(tokens) / 1000},
	}
}

func TestReviewRoundTrip(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := ReviewKey("cfg", "/a/b.go", "abc123")

	if _, ok := c.GetReview(key); ok {
		t.Fatal("hit on empty cache")
	}
	want := review("b.go", 1234)
	// Scheduling facts are not part of an entry: a memory hit serves
	// them zeroed, as a disk load of the envelope does.
	want.Retries, want.Backend, want.Shared = 2, "primary", true
	c.PutReview(key, want)
	got, ok := c.GetReview(key)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.File != want.File || got.Spent != want.Spent || len(got.Findings) != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if got.Retries != 0 || got.Backend != "" || got.Shared {
		t.Fatalf("scheduling facts cached: retries %d backend %q shared %v", got.Retries, got.Backend, got.Shared)
	}
	// A memory hit decodes nothing: two hits return the same value.
	again, _ := c.GetReview(key)
	if &again.Findings[0] != &got.Findings[0] {
		t.Fatal("hits return distinct values, want one shared value")
	}

	st := c.Stats()
	if st.Hits[StageReview] != 2 || st.Misses[StageReview] != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits[StageReview], st.Misses[StageReview])
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestPersistenceRoundTrip stores through a disk tier, then reads the
// entry back through a fresh cache instance — the process-restart path.
func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := ReviewKey("cfg", "/a/p.go", "deadbeef")

	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.PutReview(key, review("p.go", 777))

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.GetReview(key)
	if !ok {
		t.Fatal("disk read-through missed")
	}
	if got.Spent.TokensIn != 777 {
		t.Fatalf("review corrupted across restart: %+v", got)
	}
	st := c2.Stats()
	if st.DiskLoads != 1 || st.Hits[StageReview] != 1 {
		t.Fatalf("disk_loads/hits = %d/%d, want 1/1", st.DiskLoads, st.Hits[StageReview])
	}
	// Loaded entries populate the memory tier: a second get must not
	// touch disk again.
	if _, ok := c2.GetReview(key); !ok {
		t.Fatal("memory tier not populated after disk load")
	}
	if st := c2.Stats(); st.DiskLoads != 1 {
		t.Fatalf("disk_loads = %d after memory hit, want 1", st.DiskLoads)
	}

	// A corrupt disk entry is a miss, not an error.
	path := filepath.Join(dir, key+".json")
	if err := os.WriteFile(path, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.GetReview(key); ok {
		t.Fatal("corrupt disk entry served as a hit")
	}
}

// TestSupersedeKeepsNewestVersions pins the memory tier's per-lineage
// retention: after a file's third version, its first version's review
// leaves memory and the disk tier, revisiting a kept
// version reorders without dropping, and other lineages — another
// path, another configuration — are untouched.
func TestSupersedeKeepsNewestVersions(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Options{Dir: t.TempDir(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	lin := lineage{Stage: StageReview, Scope: "/a/p.go", Config: "cfg"}
	other := lineage{Stage: StageReview, Scope: "/a/p.go", Config: "cfg2"}
	kOther := ReviewKey("cfg2", "/a/p.go", "v1")
	c.supersede(other, kOther)
	c.PutReview(kOther, review("p.go", 9))

	var keys []string
	for v := 1; v <= source.DefaultKeepGenerations+1; v++ {
		k := ReviewKey("cfg", "/a/p.go", fmt.Sprintf("v%d", v))
		keys = append(keys, k)
		c.supersede(lin, k)
		c.PutReview(k, review("p.go", int64(v)))
		if v == source.DefaultKeepGenerations {
			c.supersede(lin, keys[0]) // a revisit is no new version
			c.supersede(lin, k)
		}
	}
	if got := reg.Snapshot().Counter("cache_superseded_total"); got != 1 {
		t.Fatalf("cache_superseded_total = %d, want 1", got)
	}
	if st := c.Stats(); st.Entries != source.DefaultKeepGenerations+1 {
		t.Fatalf("entries = %d, want the kept versions plus the other configuration's", st.Entries)
	}
	for _, k := range append(keys[1:], kOther) {
		if _, ok := c.GetReview(k); !ok {
			t.Fatal("a kept version missed")
		}
	}
	if st := c.Stats(); st.DiskLoads != 0 {
		t.Fatalf("kept versions loaded from disk %d times, want memory hits", st.DiskLoads)
	}
	if _, ok := c.GetReview(keys[0]); ok {
		t.Fatal("superseded version hit, want a miss in both tiers")
	}
	if st := c.Stats(); st.DiskLoads != 0 {
		t.Fatalf("disk_loads = %d, want 0 for the superseded version", st.DiskLoads)
	}
	var nilCache *Cache
	nilCache.supersede(lin, keys[0])
}

// TestSupersedeDropsDiskEntries holds the disk tier to the version
// rule: three versions on one lineage leave the newest two files, and
// a fresh cache over the directory — a restarted process — misses the
// first and hits the other two.
func TestSupersedeDropsDiskEntries(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c, err := New(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	lin := lineage{Stage: StageReview, Scope: "/a/p.go", Config: "cfg"}
	var keys []string
	for v := 1; v <= 3; v++ {
		k := ReviewKey("cfg", "/a/p.go", fmt.Sprintf("v%d", v))
		keys = append(keys, k)
		c.PutReview(k, review("p.go", int64(v)))
		c.supersede(lin, k)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); len(files) != 2 || st.DiskEntries != 2 {
		t.Fatalf("%d entry files, disk_entries %d; want 2 and 2", len(files), st.DiskEntries)
	}
	if got := reg.Snapshot().Counter("cache_disk_drops_total"); got != 0 {
		t.Fatalf("cache_disk_drops_total = %d, want 0: no file was corrupt", got)
	}
	fresh, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.GetReview(keys[0]); ok {
		t.Fatal("superseded v1 hit after a restart")
	}
	for v, k := range keys[1:] {
		if rev, ok := fresh.GetReview(k); !ok || rev.Spent.TokensIn != int64(v+2) {
			t.Fatalf("v%d: ok=%v review %+v, want the disk entry", v+2, ok, rev)
		}
	}
}

// TestSupersedeAfterUseTracksInstall interleaves two jobs on one
// lineage under the record-after-use protocol: job A misses v1, job B
// uses and records v2 and v3, then A stores v1 and records it. A's
// entry must be on the lineage, so a later version still drops it.
func TestSupersedeAfterUseTracksInstall(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	lin := lineage{Stage: StageReview, Scope: "/a/p.go", Config: "cfg"}
	key := func(v int) string { return ReviewKey("cfg", "/a/p.go", fmt.Sprintf("v%d", v)) }
	if _, ok := c.GetReview(key(1)); ok {
		t.Fatal("hit on an empty cache")
	}
	for v := 2; v <= 3; v++ {
		c.PutReview(key(v), review("p.go", int64(v)))
		c.supersede(lin, key(v))
	}
	c.PutReview(key(1), review("p.go", 1))
	c.supersede(lin, key(1))
	if got := c.UntrackedEntries(); len(got) != 0 {
		t.Fatalf("untracked entries after the interleaving: %v", got)
	}
	for v := 4; v < 4+source.DefaultKeepGenerations; v++ {
		c.PutReview(key(v), review("p.go", int64(v)))
		c.supersede(lin, key(v))
	}
	if _, ok := c.GetReview(key(1)); ok {
		t.Fatal("job A's entry outlived newer versions")
	}
	if st := c.Stats(); st.Entries != source.DefaultKeepGenerations {
		t.Fatalf("entries = %d, want %d", st.Entries, source.DefaultKeepGenerations)
	}
}

func TestAnalysisSharedByPointer(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := &sast.Analysis{}
	key := AnalysisKey("/some/dir", "digest")
	if _, ok := c.GetAnalysis(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutAnalysis(key, a, 100)
	got, ok := c.GetAnalysis(key)
	if !ok || got != a {
		t.Fatalf("analysis pointer not shared: %p vs %p", got, a)
	}
	st := c.Stats()
	if st.Hits[StageAnalysis] != 1 || st.Misses[StageAnalysis] != 1 {
		t.Fatalf("analysis hits/misses = %d/%d, want 1/1", st.Hits[StageAnalysis], st.Misses[StageAnalysis])
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.GetReview("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.PutReview("k", review("x.go", 1))
	if _, ok := c.GetAnalysis("k"); ok {
		t.Fatal("nil cache hit")
	}
	c.PutAnalysis("k", &sast.Analysis{}, 1)
	st := c.Stats()
	if st.Entries != 0 || st.Hits == nil || st.Misses == nil {
		t.Fatalf("nil stats = %+v", st)
	}
}

// TestFromSnapshotManifest checks the manifest covers exactly the
// static source set and that its digest moves iff source content does:
// an edit, an add or a rename moves it, a non-source edit does not.
func TestFromSnapshotManifest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	manifest := func() *DirManifest {
		t.Helper()
		snap, err := source.NewStore(nil).Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		return FromSnapshot(snap)
	}
	write("a.go", "package p\n")
	write("b.go", "package p\nfunc B() {}\n")
	write("b_test.go", "package p\n") // excluded: test file
	write("notes.txt", "hello")       // excluded: not Go

	// Only a.go (10 bytes) and b.go (22 bytes) count, and the digest
	// formula is pinned: analysis keys derive from it.
	m1 := manifest()
	if m1.TotalBytes != 32 {
		t.Fatalf("total bytes = %d, want 32 (a.go + b.go)", m1.TotalBytes)
	}
	if want := "e9beff3a088307f8703cf85100865d56b30e2402a130dcf132e4439256e173f9"; m1.Digest != want {
		t.Fatalf("digest = %s, want %s", m1.Digest, want)
	}
	if m2 := manifest(); m1.Digest != m2.Digest {
		t.Fatal("digest not deterministic")
	}

	// Editing an excluded file must not move the digest; editing a
	// source file must.
	write("b_test.go", "package p\n// changed\n")
	write("notes.txt", "changed")
	if m3 := manifest(); m3.Digest != m1.Digest {
		t.Fatal("digest moved on a non-source edit")
	}
	write("b.go", "package p\nfunc B() { _ = 1 }\n")
	m4 := manifest()
	if m4.Digest == m1.Digest {
		t.Fatal("digest did not move on a source edit")
	}

	// Adding a source file moves it; so does renaming one, even with the
	// content unchanged.
	write("c.go", "package p\n")
	m5 := manifest()
	if m5.Digest == m4.Digest || m5.TotalBytes != m4.TotalBytes+10 {
		t.Fatalf("add: digest moved=%v total=%d, want moved and %d", m5.Digest != m4.Digest, m5.TotalBytes, m4.TotalBytes+10)
	}
	if err := os.Rename(filepath.Join(dir, "c.go"), filepath.Join(dir, "d.go")); err != nil {
		t.Fatal(err)
	}
	if m6 := manifest(); m6.Digest == m5.Digest {
		t.Fatal("digest did not move on a rename")
	}
}

// TestKeySeparation pins that each key ingredient matters.
func TestKeySeparation(t *testing.T) {
	base := ReviewKey("cfg", "/p/f.go", "h1")
	for name, other := range map[string]string{
		"config":  ReviewKey("cfg2", "/p/f.go", "h1"),
		"path":    ReviewKey("cfg", "/q/f.go", "h1"),
		"content": ReviewKey("cfg", "/p/f.go", "h2"),
	} {
		if other == base {
			t.Fatalf("review key ignores %s", name)
		}
	}
	if AnalysisKey("/p", "d1") == AnalysisKey("/p", "d2") {
		t.Fatal("analysis key ignores digest")
	}
	if AnalysisKey("/p", "d1") == AnalysisKey("/q", "d1") {
		t.Fatal("analysis key ignores dir")
	}
}

func TestFactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c1, err := New(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	hash := "feedface"
	if _, ok := c1.GetFacts(hash); ok {
		t.Fatal("hit on empty cache")
	}
	want := &sast.FileFacts{
		Schema: sast.FactsSchema, Hash: hash, Pkg: "demo",
		Funcs: []sast.FuncFacts{{
			Key: "T.m", Throws: []string{"IOException"}, HasHook: true,
			Calls: []string{"send"},
			Loops: []sast.LoopFacts{{Line: 7, Keyworded: true, Calls: []string{"send"}}},
		}},
	}
	c1.PutFacts(hash, want)
	got, ok := c1.GetFacts(hash)
	if !ok {
		t.Fatal("miss after put")
	}
	if got.Pkg != "demo" || len(got.Funcs) != 1 || got.Funcs[0].Loops[0].Line != 7 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}

	// The disk tier makes facts survive a restart: a fresh cache over
	// the same directory hydrates without any Put.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reborn, ok := c2.GetFacts(hash)
	if !ok {
		t.Fatal("facts did not survive restart")
	}
	if reborn.Funcs[0].Throws[0] != "IOException" {
		t.Fatalf("facts corrupted across restart: %+v", reborn)
	}
	st := c2.Stats()
	if st.DiskLoads != 1 || st.Hits[StageFacts] != 1 {
		t.Fatalf("disk_loads/facts hits = %d/%d, want 1/1", st.DiskLoads, st.Hits[StageFacts])
	}
}

// TestDiskCorruptionIsMissAndDrop injects every corruption class the
// disk tier must absorb — truncation, garbage, a facts schema bump and
// a review-envelope key mismatch — and checks each reads as a miss,
// deletes the bad file, and is counted.
func TestDiskCorruptionIsMissAndDrop(t *testing.T) {
	dir := t.TempDir()
	seed, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rkey := ReviewKey("cfg", "/a/r.go", "aaa")
	seed.PutReview(rkey, review("r.go", 42))
	seed.PutFacts("bbb", &sast.FileFacts{Schema: sast.FactsSchema, Hash: "bbb", Pkg: "demo"})

	// Corrupt both entries and add a stale-schema facts file.
	rpath := filepath.Join(dir, rkey+entrySuffix)
	data, err := os.ReadFile(rpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rpath, data[:len(data)/2], 0o644); err != nil { // truncated
		t.Fatal(err)
	}
	fpath := filepath.Join(dir, factsKey("bbb")+entrySuffix)
	if err := os.WriteFile(fpath, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(dir, factsKey("ccc")+entrySuffix)
	stale := []byte(`{"schema":"wasabi-facts/v0","hash":"ccc","pkg":"demo"}`)
	if err := os.WriteFile(spath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	c, err := New(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskEntries != 3 {
		t.Fatalf("init scan found %d entries, want 3", st.DiskEntries)
	}
	if _, ok := c.GetReview(rkey); ok {
		t.Fatal("truncated review served as a hit")
	}
	if _, ok := c.GetFacts("bbb"); ok {
		t.Fatal("garbage facts served as a hit")
	}
	if _, ok := c.GetFacts("ccc"); ok {
		t.Fatal("stale-schema facts served as a hit")
	}
	for _, p := range []string{rpath, fpath, spath} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry %s not deleted (err=%v)", filepath.Base(p), err)
		}
	}
	s := reg.Snapshot()
	if n := s.Counter("cache_disk_drops_total"); n != 3 {
		t.Fatalf("cache_disk_drops_total = %v, want 3", n)
	}
	if n := s.Counter("cache_decode_errors_total"); n != 3 {
		t.Fatalf("cache_decode_errors_total = %v, want 3", n)
	}
	st := c.Stats()
	if st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("disk accounting after drops = %d entries / %d bytes, want 0/0",
			st.DiskEntries, st.DiskBytes)
	}
}

// TestDiskStatsAccounting tracks the entry/byte bookkeeping through the
// full lifecycle: init scan, store, same-key replace, and drop.
func TestDiskStatsAccounting(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	c, err := New(Options{Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("fresh dir accounting = %d/%d", st.DiskEntries, st.DiskBytes)
	}

	small := &sast.FileFacts{Schema: sast.FactsSchema, Hash: "h1", Pkg: "p"}
	c.PutFacts("h1", small)
	st := c.Stats()
	if st.DiskEntries != 1 || st.DiskBytes <= 0 {
		t.Fatalf("after store: %d entries / %d bytes", st.DiskEntries, st.DiskBytes)
	}
	firstBytes := st.DiskBytes

	// Replacing the same key keeps the entry count and adjusts bytes to
	// the new encoding's size.
	big := &sast.FileFacts{
		Schema: sast.FactsSchema, Hash: "h1", Pkg: "p",
		Funcs: []sast.FuncFacts{{Key: "F", Calls: []string{"a", "b", "c"}}},
	}
	c.PutFacts("h1", big)
	st = c.Stats()
	if st.DiskEntries != 1 || st.DiskBytes <= firstBytes {
		t.Fatalf("after replace: %d entries / %d bytes (was %d)",
			st.DiskEntries, st.DiskBytes, firstBytes)
	}

	// The gauges mirror the stats.
	s := reg.Snapshot()
	if g := s.Gauge("cache_disk_entries"); int64(g) != st.DiskEntries {
		t.Fatalf("cache_disk_entries gauge = %v, stats say %d", g, st.DiskEntries)
	}
	if g := s.Gauge("cache_disk_bytes"); int64(g) != st.DiskBytes {
		t.Fatalf("cache_disk_bytes gauge = %v, stats say %d", g, st.DiskBytes)
	}

	// A restart's init scan re-derives the same numbers from the files.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st2 := c2.Stats(); st2.DiskEntries != st.DiskEntries || st2.DiskBytes != st.DiskBytes {
		t.Fatalf("init scan = %d/%d, live accounting said %d/%d",
			st2.DiskEntries, st2.DiskBytes, st.DiskEntries, st.DiskBytes)
	}
}

// TestInitRemovesOrphanedTemps plants the temp file of a store whose
// process died before its rename: a restart removes it and counts only
// the entries.
func TestInitRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.PutFacts("h1", &sast.FileFacts{Schema: sast.FactsSchema, Hash: "h1", Pkg: "p"})
	want := c.Stats()
	orphan := filepath.Join(dir, "tmp-123")
	if err := os.WriteFile(orphan, []byte(`{"schema":"half a store`), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file survived the restart (err=%v)", err)
	}
	if st := c2.Stats(); st.DiskEntries != 1 || st.DiskBytes != want.DiskBytes {
		t.Fatalf("restart counts %d entries / %d bytes, want 1 / %d", st.DiskEntries, st.DiskBytes, want.DiskBytes)
	}
}

// TestConcurrentStoreAccounting stores one key from many goroutines at
// once — reachable in the daemon, where facts keys are content-only and
// concurrent jobs store the same review — and checks the disk tier
// counts the file once, at its size.
func TestConcurrentStoreAccounting(t *testing.T) {
	key := ReviewKey("cfg", "/a/r.go", "aaa")
	for round := 0; round < 20; round++ {
		c, err := New(Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.PutReview(key, review("r.go", 42))
			}()
		}
		wg.Wait()
		info, err := os.Stat(c.entryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.DiskEntries != 1 || st.DiskBytes != info.Size() {
			t.Fatalf("round %d: disk tier = %d entries / %d bytes, want 1 / %d",
				round, st.DiskEntries, st.DiskBytes, info.Size())
		}
	}
}
