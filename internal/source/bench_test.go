package source_test

// bench_test measures the snapshot store's load path, cold (every file
// read and hashed), warm (the daemon steady state, every file served
// from its record) and edited (one file of a directory rewritten before
// each load). `make bench` runs these for profiling; performance
// numbers come from the repository benchmark (docs/PERFORMANCE.md).

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/source"
)

// benchDir returns the HDFS app's source directory — the largest single
// app of the corpus, the same one the cache and edit benchmarks use.
func benchDir(b *testing.B) string {
	b.Helper()
	app, err := corpus.ByCode("HD")
	if err != nil {
		b.Fatal(err)
	}
	return app.Dir
}

// BenchmarkSnapshotLoadCold measures a cold load: fresh store each
// iteration, so every file is read and hashed (parsing is lazy, on the
// first File.Syntax call).
func BenchmarkSnapshotLoadCold(b *testing.B) {
	dir := benchDir(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := source.NewStore(nil).Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoadWarm measures the daemon steady state: one store
// across iterations over files that do not change, so each load drains
// the watcher's empty queue and stats the directory, and reads no file.
func BenchmarkSnapshotLoadWarm(b *testing.B) {
	dir := benchDir(b)
	st := source.NewStore(nil)
	for range 2 { // the second load arms the directory's watch
		if _, err := st.Load(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotLoadEdited measures the edit-app steady state: one
// store across iterations over a directory of 12 files, one of which is
// rewritten in place (same size, new bytes) before each load, so each
// load reads and hashes that file alone. The rewrite is timed too.
func BenchmarkSnapshotLoadEdited(b *testing.B) {
	const files = 12
	dir := b.TempDir()
	body := func(n int) []byte {
		return []byte(fmt.Sprintf("package demo\n\n// %s\nvar V = %08d\n", strings.Repeat("x", 2000), n))
	}
	for i := 0; i < files; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%02d.go", i)), body(i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	st := source.NewStore(nil)
	for range 2 { // the second load arms the directory's watch
		if _, err := st.Load(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := filepath.Join(dir, fmt.Sprintf("f%02d.go", i%files))
		if err := os.WriteFile(path, body(files+i), 0o644); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}
