package core_test

// snapshot_test pins the parse-once pipeline (internal/source) at the
// whole-pipeline level: a full corpus run parses each source file exactly
// once regardless of worker count, and a warm daemon — one store and one
// cache shared across runs, the internal/server configuration — re-parses
// and re-extracts exactly the files whose bytes changed, while the
// canonical report stays byte-identical. Counter assertions are exact:
// the source_* metrics count logical events (docs/OBSERVABILITY.md).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/corpusgen"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/report"
	"wasabi/internal/source"
)

// countSourceFiles counts the files source.IsSourceFile admits in dir.
func countSourceFiles(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		if !e.IsDir() && source.IsSourceFile(e.Name()) {
			n++
		}
	}
	return n
}

// TestParseOncePerRun is the acceptance gate of the snapshot store: a
// full corpus run loads and parses each unique source file exactly once
// — source_parse_total equals the corpus file count and nothing is
// double-loaded, at any worker count.
func TestParseOncePerRun(t *testing.T) {
	var want int64
	for _, app := range corpus.Apps() {
		want += countSourceFiles(t, app.Dir)
	}
	if want == 0 {
		t.Fatal("corpus has no source files")
	}
	for _, workers := range []int{1, 4} {
		opts := core.DefaultOptions()
		opts.Workers = workers
		opts.Obs = obs.New()
		w := core.New(opts)
		if _, err := w.RunCorpus(corpus.Apps()); err != nil {
			t.Fatal(err)
		}
		s := opts.Obs.Reg().Snapshot()
		if got := s.Counter("source_parse_total"); got != want {
			t.Fatalf("workers=%d: source_parse_total = %d, want %d (one parse per unique file)", workers, got, want)
		}
		if got := s.Counter("source_files_loaded_total"); got != want {
			t.Fatalf("workers=%d: source_files_loaded_total = %d, want %d", workers, got, want)
		}
		if got := s.Counter("source_reuse_total"); got != 0 {
			t.Fatalf("workers=%d: source_reuse_total = %d, want 0 on a cold run", workers, got)
		}
		if got := s.Counter("source_derived_computes_total"); got != want {
			t.Fatalf("workers=%d: sast extractions = %d, want %d", workers, got, want)
		}
	}
}

// counterDelta is the movement of one (possibly labeled) counter between
// two registry snapshots.
func counterDelta(after, before obs.Snapshot, name string, labels ...string) int64 {
	return after.Counter(name, labels...) - before.Counter(name, labels...)
}

// warmDaemon returns the daemon configuration over app — one observer,
// one store and one cache shared across runs — as a function that runs
// a job and returns its report bytes and fresh LLM spend.
func warmDaemon(t *testing.T, app corpus.App) (*obs.Observer, *cache.Cache, func() ([]byte, llm.Usage)) {
	t.Helper()
	observer := obs.New()
	ca, err := cache.New(cache.Options{Metrics: observer.Reg()})
	if err != nil {
		t.Fatal(err)
	}
	store := source.NewStore(observer.Reg())
	return observer, ca, func() ([]byte, llm.Usage) {
		t.Helper()
		opts := core.DefaultOptions()
		opts.Workers = 2
		opts.Cache = ca
		opts.Source = store
		opts.Obs = observer
		w := core.New(opts)
		cr, err := w.RunCorpus([]corpus.App{app})
		if err != nil {
			t.Fatal(err)
		}
		data, err := report.Marshal(report.Build(cr))
		if err != nil {
			t.Fatal(err)
		}
		return data, w.LLMUsage()
	}
}

// TestWarmDaemonSingleFileEdit drives the daemon configuration through
// the cold → warm → single-edit trajectory and asserts the incremental
// contract exactly: the warm run parses nothing, and after editing one
// file only that file re-parses, re-extracts, and re-reviews.
func TestWarmDaemonSingleFileEdit(t *testing.T) {
	app := copyApp(t, "HD")
	nFiles := countSourceFiles(t, app.Dir)
	if nFiles < 2 {
		t.Fatalf("need ≥2 source files to distinguish one from all, have %d", nFiles)
	}
	observer, ca, run := warmDaemon(t, app)

	// Cold: every file parses and extracts once.
	cold, _ := run()
	s0 := observer.Reg().Snapshot()
	if got := s0.Counter("source_parse_total"); got != nFiles {
		t.Fatalf("cold parses = %d, want %d", got, nFiles)
	}
	if got := s0.Counter("source_derived_computes_total"); got != nFiles {
		t.Fatalf("cold extractions = %d, want %d", got, nFiles)
	}

	// Warm: bytes re-read (change detection), zero parses, zero
	// extractions — the analysis comes from the manifest-keyed cache and
	// the reviews from the review cache. Same bytes out, no fresh spend.
	warm, warmFresh := run()
	s1 := observer.Reg().Snapshot()
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm report differs from cold")
	}
	if warmFresh != (llm.Usage{}) {
		t.Fatalf("warm run spent fresh LLM traffic: %+v", warmFresh)
	}
	if d := counterDelta(s1, s0, "source_parse_total"); d != 0 {
		t.Fatalf("warm run parsed %d files, want 0", d)
	}
	if d := counterDelta(s1, s0, "source_reuse_total"); d != nFiles {
		t.Fatalf("warm reuses = %d, want %d", d, nFiles)
	}
	if d := counterDelta(s1, s0, "source_derived_computes_total"); d != 0 {
		t.Fatalf("warm run re-extracted %d files, want 0", d)
	}

	// Edit one file: exactly one parse, one extraction, one review miss.
	entries, err := os.ReadDir(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var touched string
	for _, e := range entries {
		if !e.IsDir() && source.IsSourceFile(e.Name()) {
			touched = filepath.Join(app.Dir, e.Name())
			break
		}
	}
	src, err := os.ReadFile(touched)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(touched, append(src, []byte("\n// touched by snapshot_test\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	missBefore := ca.Stats().Misses[cache.StageReview]
	_, editFresh := run()
	s2 := observer.Reg().Snapshot()
	if d := counterDelta(s2, s1, "source_parse_total"); d != 1 {
		t.Fatalf("post-edit parses = %d, want exactly 1", d)
	}
	if d := counterDelta(s2, s1, "source_reuse_total"); d != nFiles-1 {
		t.Fatalf("post-edit reuses = %d, want %d", d, nFiles-1)
	}
	if d := counterDelta(s2, s1, "source_derived_computes_total"); d != 1 {
		t.Fatalf("post-edit extractions = %d, want exactly 1", d)
	}
	if d := counterDelta(s2, s1, "source_derived_reuse_total"); d != nFiles-1 {
		t.Fatalf("post-edit extraction reuses = %d, want %d", d, nFiles-1)
	}
	if d := ca.Stats().Misses[cache.StageReview] - missBefore; d != 1 {
		t.Fatalf("post-edit review misses = %d, want exactly 1", d)
	}
	if editFresh.TokensIn == 0 {
		t.Fatal("edited file was not re-reviewed")
	}
}

// TestWarmDaemonStatCheck runs the daemon configuration over files it
// has just copied: once the second job has armed the directory's watch,
// a warm job reads no byte of them, serves every file from its record
// and reproduces the cold report. A same-size edit in place whose old
// mtime is put back still raises an event, so the next job re-reads,
// re-parses, re-extracts and re-reviews exactly that file.
func TestWarmDaemonStatCheck(t *testing.T) {
	app := copyApp(t, "HD")
	nFiles := countSourceFiles(t, app.Dir)
	observer, ca, run := warmDaemon(t, app)
	cold, _ := run()
	run()
	s0 := observer.Reg().Snapshot()
	warm, warmFresh := run()
	s1 := observer.Reg().Snapshot()
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm report differs from cold")
	}
	if warmFresh != (llm.Usage{}) {
		t.Fatalf("warm run spent fresh LLM traffic: %+v", warmFresh)
	}
	for name, want := range map[string]int64{
		"source_bytes_total":        0,
		"source_files_loaded_total": 0,
		"source_stat_reuse_total":   nFiles,
		"source_reuse_total":        nFiles,
		"source_parse_total":        0,
	} {
		if d := counterDelta(s1, s0, name); d != want {
			t.Fatalf("warm run: %s moved %d, want %d", name, d, want)
		}
	}

	// Rewrite one byte of a comment in place and restore the mtime.
	entries, err := os.ReadDir(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var edited string
	for _, e := range entries {
		if !e.IsDir() && source.IsSourceFile(e.Name()) {
			edited = filepath.Join(app.Dir, e.Name())
			break
		}
	}
	src, err := os.ReadFile(edited)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(src, []byte("// ")) + len("// ")
	if i < len("// ") || i >= len(src) || !('a' <= src[i]|0x20 && src[i]|0x20 <= 'z') {
		t.Fatalf("%s has no comment starting with a letter to edit", edited)
	}
	src[i] ^= 0x20 // the letter's other case
	info, err := os.Stat(edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edited, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(edited, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}
	missBefore := ca.Stats().Misses[cache.StageReview]
	run()
	s2 := observer.Reg().Snapshot()
	for name, want := range map[string]int64{
		"source_files_loaded_total":     1,
		"source_bytes_total":            int64(len(src)),
		"source_stat_reuse_total":       nFiles - 1,
		"source_parse_total":            1,
		"source_derived_computes_total": 1,
	} {
		if d := counterDelta(s2, s1, name); d != want {
			t.Fatalf("after a same-size edit: %s moved %d, want %d", name, d, want)
		}
	}
	if d := ca.Stats().Misses[cache.StageReview] - missBefore; d != 1 {
		t.Fatalf("after a same-size edit: review misses = %d, want exactly 1", d)
	}
}

// TestEditJobsReadOnlyTheEditedFile pins the front end of the
// benchmark's edit-app workload in process: 600 daemon jobs over one
// generated app, each after a same-size rewrite in place of the next of
// its files, read 600 files between them, the edited one each. A store
// that trusted a file only once it was a second old read all 13 of the
// app's files on every job, 7,800 in all.
func TestEditJobsReadOnlyTheEditedFile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 600 jobs")
	}
	root := t.TempDir()
	c, err := corpusgen.Generate(corpusgen.Config{Seed: 7, Scale: 1})
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
	app := gen[0]
	// Each file gets a fixed-width trailing comment, which every edit
	// rewrites, so no edit changes a file's size or what it analyzes.
	marker := func(n int) []byte { return []byte(fmt.Sprintf("// edit %06d\n", n)) }
	var paths []string
	at := map[string]int64{}
	entries, err := os.ReadDir(app.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !source.IsSourceFile(e.Name()) {
			continue
		}
		path := filepath.Join(app.Dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, marker(0)...), 0o644); err != nil {
			t.Fatal(err)
		}
		paths, at[path] = append(paths, path), int64(len(data))
	}
	observer, _, run := warmDaemon(t, app)
	run()
	run() // arms the directory's watch
	before := observer.Reg().Snapshot()
	const jobs = 600
	for i := 1; i <= jobs; i++ {
		path := paths[i%len(paths)]
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(marker(i), at[path]); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		run()
	}
	after := observer.Reg().Snapshot()
	if d := counterDelta(after, before, "source_files_loaded_total"); d != jobs {
		t.Fatalf("%d one-file edits of an app of %d files read %d files, want %d", jobs, len(paths), d, jobs)
	}
}
