package source_test

// bench_test measures the snapshot store's load path, cold (every file
// read and hashed) and warm (the daemon steady state, every file served
// from its stat record). `make bench` runs these for profiling; performance
// numbers come from the repository benchmark (docs/PERFORMANCE.md).

import (
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
// across iterations over files last changed more than the trust window
// before the first load (a checkout's), so each load stats the
// directory and every file and reads none.
func BenchmarkSnapshotLoadWarm(b *testing.B) {
	dir := benchDir(b)
	st := source.NewStore(nil)
	if _, err := st.Load(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Load(dir); err != nil {
			b.Fatal(err)
		}
	}
}
