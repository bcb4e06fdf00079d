package source_test

// source_test pins the store's contract: each (path, content) version is
// parsed at most once — lazily, on the first Syntax call — no matter how
// many loads or lanes touch it, edits invalidate exactly the edited
// file, the derived artifact memoized through File.MemoThrough is
// computed at most once per file version, and per-path retention is
// bounded to the latest K generations. Loads read through pooled
// buffers, yet every File owns its bytes and a warm load copies none.
// The counters asserted here are
// the same ones docs/OBSERVABILITY.md documents and the incremental
// tests in internal/core build on.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"wasabi/internal/obs"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// writeDir materializes files into a temp dir and returns its path.
func writeDir(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestIsSourceFile(t *testing.T) {
	cases := map[string]bool{
		"retry.go":      true,
		"client.go":     true,
		"retry_test.go": false,
		"suite.go":      false,
		"workload.go":   false,
		"manifest.go":   false,
		"README.md":     false,
		"go":            false,
	}
	for name, want := range cases {
		if got := source.IsSourceFile(name); got != want {
			t.Errorf("IsSourceFile(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestLoadParsesOncePerVersion is the core contract: loading N files
// parses nothing (parse is lazy), the first Syntax calls parse each file
// exactly once, and a second load of the unchanged dir reuses every
// artifact — including the parses.
func TestLoadParsesOncePerVersion(t *testing.T) {
	dir := writeDir(t, map[string]string{
		"a.go":      "package demo\n\nfunc A() {}\n",
		"b.go":      "package demo\n\nfunc B() {}\n",
		"b_test.go": "package demo\n",
		"suite.go":  "package demo\n",
		"notes.txt": "not source",
		"c.go":      "package demo\n\nfunc C() {}\n",
	})
	observer := obs.New()
	st := source.NewStore(observer.Reg())

	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Names(), []string{"a.go", "b.go", "c.go"}; len(got) != len(want) {
		t.Fatalf("snapshot files = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("snapshot files = %v, want %v", got, want)
			}
		}
	}
	s := observer.Reg().Snapshot()
	if n := s.Counter("source_parse_total"); n != 0 {
		t.Fatalf("parses after load = %d, want 0 (parse is lazy)", n)
	}
	for _, f := range snap.Files {
		if _, err := f.Syntax(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Syntax(); err != nil { // second call must not re-parse
			t.Fatal(err)
		}
	}
	s = observer.Reg().Snapshot()
	if n := s.Counter("source_parse_total"); n != 3 {
		t.Fatalf("cold parses = %d, want 3", n)
	}
	if n := s.Counter("source_reuse_total"); n != 0 {
		t.Fatalf("cold reuses = %d, want 0", n)
	}

	snap2, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range snap2.Files {
		if _, err := f.Syntax(); err != nil {
			t.Fatal(err)
		}
	}
	s = observer.Reg().Snapshot()
	if n := s.Counter("source_parse_total"); n != 3 {
		t.Fatalf("warm parses = %d, want 3 (no re-parse of unchanged files)", n)
	}
	if n := s.Counter("source_reuse_total"); n != 3 {
		t.Fatalf("warm reuses = %d, want 3", n)
	}
	for i := range snap.Files {
		if snap.Files[i] != snap2.Files[i] {
			t.Fatalf("warm load returned a different *File for %s", snap.Files[i].Name)
		}
	}
}

// TestEditInvalidatesOnlyEditedFile: after touching one file, exactly one
// new parse happens; the other files' artifacts are reused.
func TestEditInvalidatesOnlyEditedFile(t *testing.T) {
	dir := writeDir(t, map[string]string{
		"a.go": "package demo\n\nfunc A() {}\n",
		"b.go": "package demo\n\nfunc B() {}\n",
	})
	observer := obs.New()
	st := source.NewStore(observer.Reg())
	snap0, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range snap0.Files {
		if _, err := f.Syntax(); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package demo\n\nfunc A2() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range snap.Files {
		if _, err := f.Syntax(); err != nil {
			t.Fatal(err)
		}
	}
	s := observer.Reg().Snapshot()
	if n := s.Counter("source_parse_total"); n != 3 {
		t.Fatalf("parses after single edit = %d, want 3 (2 cold + 1 re-parse)", n)
	}
	if n := s.Counter("source_reuse_total"); n != 1 {
		t.Fatalf("reuses after single edit = %d, want 1 (b.go only)", n)
	}
	if syntax, err := snap.Files[0].Syntax(); err != nil || syntax.Decls == nil {
		t.Fatalf("edited file has no parsed AST (err=%v)", err)
	}
}

// TestParseErrDoesNotFailLoad: a file that does not parse still loads —
// the consumer decides at Syntax time (sast fails, llm degrades) — and
// both the error and the nil tree memoize.
func TestParseErrDoesNotFailLoad(t *testing.T) {
	dir := writeDir(t, map[string]string{
		"bad.go":  "package demo\n\nfunc Broken( {\n",
		"good.go": "package demo\n\nfunc Fine() {}\n",
	})
	snap, err := source.NewStore(nil).Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Files) != 2 {
		t.Fatalf("loaded %d files, want 2", len(snap.Files))
	}
	bad, good := snap.Files[0], snap.Files[1]
	if syntax, err := bad.Syntax(); err == nil || syntax != nil {
		t.Fatalf("bad.go: Syntax()=%v,%v, want error and nil AST", syntax, err)
	}
	if syntax, err := bad.Syntax(); err == nil || syntax != nil { // memoized failure
		t.Fatalf("bad.go second Syntax()=%v,%v, want same error and nil AST", syntax, err)
	}
	if syntax, err := good.Syntax(); err != nil || syntax == nil {
		t.Fatalf("good.go: Syntax() err=%v, want parsed AST", err)
	}
}

// TestMemoComputesOncePerVersion: a derived artifact is computed once per
// file version and reused afterwards, with the derived counters moving
// exactly as the incremental static tier expects.
func TestMemoComputesOncePerVersion(t *testing.T) {
	dir := writeDir(t, map[string]string{"a.go": "package demo\n"})
	observer := obs.New()
	st := source.NewStore(observer.Reg())
	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := snap.Files[0]
	calls := 0
	compute := func() any { calls++; return calls }
	if v := f.MemoThrough(nil, compute); v.(int) != 1 {
		t.Fatalf("first MemoThrough = %v, want 1", v)
	}
	if v := f.MemoThrough(nil, compute); v.(int) != 1 {
		t.Fatalf("second MemoThrough = %v, want cached 1", v)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := observer.Reg().Snapshot()
	if n := s.Counter("source_derived_computes_total"); n != 1 {
		t.Fatalf("derived computes = %d, want 1", n)
	}
	if n := s.Counter("source_derived_reuse_total"); n != 1 {
		t.Fatalf("derived reuses = %d, want 1", n)
	}
}

// TestKeyThroughDerivesOncePerConfig: a file version derives its key
// once per config, derives again when the config changes, and a new
// version of the path derives its own. Concurrent callers all get the
// derived key (run under -race by make race).
func TestKeyThroughDerivesOncePerConfig(t *testing.T) {
	dir := writeDir(t, map[string]string{"a.go": "package demo\n"})
	st := source.NewStore(nil)
	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := snap.Files[0]
	calls := 0
	derive := func(config string) string {
		return f.KeyThrough(config, func() string { calls++; return config + "/" + f.SHA256 })
	}
	for i, c := range []struct {
		config string
		calls  int
	}{{"fp1", 1}, {"fp1", 1}, {"fp2", 2}, {"fp2", 2}, {"fp1", 3}} {
		if got := derive(c.config); got != c.config+"/"+f.SHA256 || calls != c.calls {
			t.Fatalf("call %d (%s): key %q after %d derivations, want %d", i, c.config, got, calls, c.calls)
		}
	}
	if n := testing.AllocsPerRun(20, func() { derive("fp1") }); n != 0 {
		t.Fatalf("a repeated KeyThrough allocates %v objects, want 0", n)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte("package demo // edited\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := snap.Files[0]
	if got := g.KeyThrough("fp1", func() string { return "new" }); got != "new" {
		t.Fatalf("an edited file's KeyThrough = %q, want its own key", got)
	}
	var wg sync.WaitGroup
	keys := make([]string, 8)
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			config := fmt.Sprintf("c%d", i%2)
			keys[i] = g.KeyThrough(config, func() string { return config })
		}(i)
	}
	wg.Wait()
	for i, k := range keys {
		if want := fmt.Sprintf("c%d", i%2); k != want {
			t.Fatalf("goroutine %d: key %q, want %q", i, k, want)
		}
	}
}

// TestMemoThroughHydrates: when the in-memory memo misses, the external
// load supplies the artifact (counted as a hydration, not a compute);
// later accesses reuse it; compute never runs.
func TestMemoThroughHydrates(t *testing.T) {
	dir := writeDir(t, map[string]string{"a.go": "package demo\n"})
	observer := obs.New()
	st := source.NewStore(observer.Reg())
	snap, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := snap.Files[0]
	loads, computes := 0, 0
	load := func() (any, bool) { loads++; return "from-disk", true }
	compute := func() any { computes++; return "computed" }
	if v := f.MemoThrough(load, compute); v != "from-disk" {
		t.Fatalf("first MemoThrough = %v, want from-disk", v)
	}
	if v := f.MemoThrough(load, compute); v != "from-disk" {
		t.Fatalf("second MemoThrough = %v, want memoized from-disk", v)
	}
	if loads != 1 || computes != 0 {
		t.Fatalf("loads=%d computes=%d, want 1/0", loads, computes)
	}
	s := observer.Reg().Snapshot()
	if n := s.Counter("source_derived_hydrations_total"); n != 1 {
		t.Fatalf("derived hydrations = %d, want 1", n)
	}
	if n := s.Counter("source_derived_computes_total"); n != 0 {
		t.Fatalf("derived computes = %d, want 0", n)
	}
	if n := s.Counter("source_derived_reuse_total"); n != 1 {
		t.Fatalf("derived reuses = %d, want 1", n)
	}
}

// TestConcurrentLoadSingleParse hammers one dir from many goroutines,
// each forcing the parse; the per-file sync.Once must collapse the
// parses to one per file.
func TestConcurrentLoadSingleParse(t *testing.T) {
	dir := writeDir(t, map[string]string{
		"a.go": "package demo\n\nfunc A() {}\n",
		"b.go": "package demo\n\nfunc B() {}\n",
	})
	observer := obs.New()
	st := source.NewStore(observer.Reg())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap, err := st.Load(dir)
			if err != nil {
				t.Error(err)
				return
			}
			for _, f := range snap.Files {
				if _, err := f.Syntax(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	s := observer.Reg().Snapshot()
	if n := s.Counter("source_parse_total"); n != 2 {
		t.Fatalf("concurrent parses = %d, want 2", n)
	}
	// A reuse is of a record (no read) or of an interned version (a read).
	loaded, reused, recorded := s.Counter("source_files_loaded_total"), s.Counter("source_reuse_total"), s.Counter("source_stat_reuse_total")
	if loaded-(reused-recorded) != 2 {
		t.Fatalf("loaded=%d reused=%d (%d from records), want exactly 2 first-sight loads", loaded, reused, recorded)
	}
}

// TestKeepNewest pins the one keep-newest-K rule the store and the
// analysis cache share: a new key drops the oldest beyond K, a key
// recorded again moves to newest, and re-recording the newest drops
// nothing.
func TestKeepNewest(t *testing.T) {
	var kept []string
	record := func(key string, wantKept, wantDropped []string) {
		t.Helper()
		var dropped []string
		kept, dropped = source.KeepNewest(kept, key)
		if !slices.Equal(kept, wantKept) || !slices.Equal(dropped, wantDropped) {
			t.Fatalf("record %q: kept %v dropped %v, want %v and %v", key, kept, dropped, wantKept, wantDropped)
		}
	}
	record("a", []string{"a"}, nil)
	record("b", []string{"a", "b"}, nil)
	record("b", []string{"a", "b"}, nil)
	record("a", []string{"b", "a"}, nil)
	record("c", []string{"a", "c"}, []string{"b"})
	record("d", []string{"c", "d"}, []string{"a"})
}

// TestGenerationalEviction drives one path through a long edit history:
// retained entries must plateau at the keep bound, retained bytes must
// track exactly the surviving generations, and source_evictions_total
// must account for every version beyond the bound.
func TestGenerationalEviction(t *testing.T) {
	dir := writeDir(t, map[string]string{
		"a.go": "package demo\n\nfunc Edit0() {}\n",
		"b.go": "package demo\n\nfunc B() {}\n",
	})
	observer := obs.New()
	st := source.NewStore(observer.Reg())

	const edits = 12
	var lastTwoBytes int64
	for i := 0; i < edits; i++ {
		body := fmt.Sprintf("package demo\n\nfunc Edit%d() {}\n", i)
		if i > 0 {
			if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := st.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.Files[0].Syntax(); err != nil {
			t.Fatal(err)
		}
		if i >= edits-source.DefaultKeepGenerations {
			lastTwoBytes += int64(len(body))
		}
	}
	bSize := int64(len("package demo\n\nfunc B() {}\n"))

	s := observer.Reg().Snapshot()
	if n := s.Counter("source_evictions_total"); n != edits-source.DefaultKeepGenerations {
		t.Fatalf("evictions = %d, want %d (every generation beyond the keep bound)",
			n, edits-source.DefaultKeepGenerations)
	}
	if n := s.Gauge("source_store_files"); n != source.DefaultKeepGenerations+1 {
		t.Fatalf("store files = %v, want %d (K generations of a.go + b.go)",
			n, source.DefaultKeepGenerations+1)
	}
	if n := s.Gauge("source_retained_bytes"); int64(n) != lastTwoBytes+bSize {
		t.Fatalf("retained bytes = %v, want %d (latest %d generations + b.go)",
			n, lastTwoBytes+bSize, source.DefaultKeepGenerations)
	}
	// Every version of a.go parsed exactly once; b.go — loaded but never
	// asked for its AST — parsed zero times (parse is lazy).
	if n := s.Counter("source_parse_total"); n != edits {
		t.Fatalf("parses = %d, want %d", n, edits)
	}
}

// TestEvictedGenerationRecomputes: re-loading a content version that was
// evicted re-interns it and recomputes its derived artifacts from
// scratch — stale memo state is impossible because the File object went
// with the generation.
func TestEvictedGenerationRecomputes(t *testing.T) {
	dir := writeDir(t, map[string]string{"a.go": "package demo\n\nfunc V0() {}\n"})
	observer := obs.New()
	st := source.NewStore(observer.Reg())
	versions := []string{
		"package demo\n\nfunc V0() {}\n",
		"package demo\n\nfunc V1() {}\n",
		"package demo\n\nfunc V2() {}\n",
	}
	computes := 0
	loadAndMemo := func(body string) any {
		if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Files[0].MemoThrough(nil, func() any { computes++; return body })
	}
	for _, v := range versions {
		if got := loadAndMemo(v); got != v {
			t.Fatalf("memo for %q = %v", v, got)
		}
	}
	// V0 was evicted (keep = 2). Re-loading it must recompute, not
	// resurrect, the artifact.
	if got := loadAndMemo(versions[0]); got != versions[0] {
		t.Fatalf("re-interned memo = %v, want %q", got, versions[0])
	}
	if computes != 4 {
		t.Fatalf("computes = %d, want 4 (3 versions + 1 recompute after eviction)", computes)
	}
	s := observer.Reg().Snapshot()
	if n := s.Counter("source_evictions_total"); n != 2 {
		t.Fatalf("evictions = %d, want 2 (V0 once, then V1)", n)
	}
}

// TestConcurrentEvictionSafe hammers edits and loads from many
// goroutines under -race — each goroutine owns one path, so file writes
// are race-free while every Load reads (and interns versions of) every
// path concurrently with the others' edits. Files held by older
// snapshots stay usable after eviction — a held version still resolves
// its own positions, so its facts carry the right loop line — and the
// store's retained set stays within the per-path bound.
func TestConcurrentEvictionSafe(t *testing.T) {
	dir := writeDir(t, map[string]string{"f0.go": heldRetryLoop})
	observer := obs.New()
	st := source.NewStore(observer.Reg())
	snap0, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	held := snap0.Files[0]

	const goroutines, editsEach = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := fmt.Sprintf("f%d.go", g)
			for i := 0; i < editsEach; i++ {
				body := fmt.Sprintf("package demo\n\nfunc V%d_%d() {}\n", g, i)
				if err := os.WriteFile(filepath.Join(dir, own), []byte(body), 0o644); err != nil {
					t.Error(err)
					return
				}
				snap, err := st.Load(dir)
				if err != nil {
					t.Error(err)
					return
				}
				for _, f := range snap.Files {
					// Only the goroutine's own file is read race-free;
					// other paths may intern torn mid-write versions,
					// which the store must carry without corruption.
					if f.Name != own {
						continue
					}
					if _, perr := f.Syntax(); perr != nil {
						t.Errorf("unexpected parse error: %v", perr)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The file held across the whole storm is still fully usable even
	// though its generation was long evicted.
	if syntax, err := held.Syntax(); err != nil || syntax == nil {
		t.Fatalf("held file unusable after eviction: %v", err)
	}
	if held.SHA256 == "" || len(held.Bytes) == 0 {
		t.Fatal("held file lost its content")
	}
	facts := factsRecorder{}
	if _, err := sast.AnalyzeSnapshotWith(snap0, facts); err != nil {
		t.Fatal(err)
	}
	ff := facts[held.SHA256]
	if ff == nil || len(ff.Funcs) != 1 || len(ff.Funcs[0].Loops) != 1 {
		t.Fatalf("held file facts = %+v, want one function with one loop", ff)
	}
	if line := ff.Funcs[0].Loops[0].Line; line != heldRetryLoopLine {
		t.Fatalf("held file's loop at line %d, want %d", line, heldRetryLoopLine)
	}
	s := observer.Reg().Snapshot()
	if n, bound := s.Gauge("source_store_files"), float64(goroutines*source.DefaultKeepGenerations); n > bound {
		t.Fatalf("store retains %v entries across %d paths, want <= %v",
			n, goroutines, bound)
	}
	if s.Counter("source_evictions_total") == 0 {
		t.Fatal("edit storm evicted nothing")
	}
}

// heldRetryLoop is a file whose one retry loop starts on
// heldRetryLoopLine.
const (
	heldRetryLoop = `package demo

func V0(call func() error) {
	for {
		if err := call(); err != nil {
			continue
		}
		return
	}
}
`
	heldRetryLoopLine = 4
)

// factsRecorder is a sast.FactsStore that never hydrates and keeps
// every extraction by content hash.
type factsRecorder map[string]*sast.FileFacts

func (r factsRecorder) GetFacts(string) (*sast.FileFacts, bool) { return nil, false }
func (r factsRecorder) PutFacts(sum string, ff *sast.FileFacts) { r[sum] = ff }

// TestWarmLoadCopiesNoBytes: a warm load of an unchanged directory
// reads and hashes its files in a pooled buffer and copies none of them.
// The median of per-call allocation is asserted, because a buffer the
// pool dropped (on a GC, or at random under the race detector) makes
// that one call regrow it.
func TestWarmLoadCopiesNoBytes(t *testing.T) {
	const size = 256 << 10
	dir := writeDir(t, map[string]string{"big.go": "package demo\n\n// " + strings.Repeat("x", size) + "\n"})
	st := source.NewStore(obs.New().Reg())
	if _, err := st.Load(dir); err != nil {
		t.Fatal(err)
	}
	deltas := make([]uint64, 41)
	var ms runtime.MemStats
	for i := range deltas {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := st.Load(dir); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		deltas[i] = ms.TotalAlloc - before
	}
	slices.Sort(deltas)
	if median := deltas[len(deltas)/2]; median > size/16 {
		t.Fatalf("warm load of a %d-byte file allocates %d bytes (median), want at most %d", size, median, size/16)
	}
}

// TestLoadedBytesNeverAliasPool: an in-place, same-size edit is a new
// version, and the snapshot taken before it keeps the old bytes even
// though both loads read through the same pooled buffer.
func TestLoadedBytesNeverAliasPool(t *testing.T) {
	a := "package demo\n\nvar V = \"AAAAAAAA\"\n"
	b := strings.ReplaceAll(a, "A", "B")
	dir := writeDir(t, map[string]string{"v.go": a})
	observer := obs.New()
	st := source.NewStore(observer.Reg())
	first, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "v.go"), []byte(b), 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := st.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(first.Files[0].Bytes); got != a {
		t.Fatalf("first snapshot's bytes changed to %q after a later load", got)
	}
	if got := string(second.Files[0].Bytes); got != b {
		t.Fatalf("second snapshot reads %q, want the edit %q", got, b)
	}
	if first.Files[0] == second.Files[0] || first.Files[0].SHA256 == second.Files[0].SHA256 {
		t.Fatal("same-size in-place edit was not seen as a new version")
	}
	if n := observer.Reg().Snapshot().Counter("source_reuse_total"); n != 0 {
		t.Fatalf("source_reuse_total = %d, want 0: the edit must not reuse the old version", n)
	}
}

// TestConcurrentLoadsOwnTheirBytes loads several directories from many
// goroutines at once, so pooled buffers pass between loads of different
// content and sizes (some beyond the buffer's initial capacity): every
// File must still hold exactly its own file's bytes.
func TestConcurrentLoadsOwnTheirBytes(t *testing.T) {
	const dirs = 4
	want := make([]map[string]string, dirs)
	paths := make([]string, dirs)
	for d := range want {
		want[d] = map[string]string{}
		for i, n := range []int{10, 3000, 70000} {
			name := fmt.Sprintf("f%d.go", i)
			want[d][name] = fmt.Sprintf("package d%d\n\n// %s\n", d, strings.Repeat(string(rune('a'+d)), n*(d+1)))
		}
		paths[d] = writeDir(t, want[d])
	}
	st := source.NewStore(obs.New().Reg())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d := (g + i) % dirs
				snap, err := st.Load(paths[d])
				if err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
				for _, f := range snap.Files {
					if string(f.Bytes) != want[d][f.Name] {
						t.Errorf("dir %d file %s: bytes differ from the file's content", d, f.Name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
