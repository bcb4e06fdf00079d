package source_test

// bench_test compares the snapshot store against the pre-store cost
// model, where each pipeline consumer read and interpreted the corpus
// independently: the cache hashed the bytes, the static analysis parsed
// them, and the LLM reviewer parsed them again (three reads, two
// parses per file per run). `make bench` runs these; the numbers feed
// docs/PERFORMANCE.md and EXPERIMENTS.md.

import (
	"crypto/sha256"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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
// across iterations, so loads re-read and re-hash bytes but reuse every
// parsed artifact.
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

// BenchmarkLegacyTripleParse emulates the pre-store pipeline: per run,
// the cache manifest read and hashed every file, the static analysis
// read and parsed every file, and the reviewer read and parsed every
// file again against its own FileSet.
func BenchmarkLegacyTripleParse(b *testing.B) {
	dir := benchDir(b)
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && source.IsSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The legacy manifest pass: read + hash.
		for _, name := range names {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				b.Fatal(err)
			}
			sha256.Sum256(data)
		}
		// sast.AnalyzeDir: read + parse into one FileSet.
		fset := token.NewFileSet()
		for _, name := range names {
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := parser.ParseFile(fset, path, data, parser.ParseComments); err != nil {
				b.Fatal(err)
			}
		}
		// llm.Review: read + parse again, one throwaway FileSet per file.
		for _, name := range names {
			path := filepath.Join(dir, name)
			data, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := parser.ParseFile(token.NewFileSet(), path, data, parser.ParseComments); err != nil {
				b.Fatal(err)
			}
		}
	}
}
