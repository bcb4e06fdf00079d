package llm

// bench_test measures the model's cold per-file path: read, hash, parse
// and review every file of the seed corpus, and the evidence pass over
// files parsed before timing. `make bench` runs it for profiling;
// performance numbers come from the repository benchmark
// (docs/PERFORMANCE.md).

import (
	"go/ast"
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/source"
)

// BenchmarkReviewCold reviews every seed-corpus file from a fresh store
// each iteration, so every file is loaded, parsed and read for evidence,
// as on a cold daemon or after an edit.
func BenchmarkReviewCold(b *testing.B) {
	apps := corpus.Apps()
	c := NewClient(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := source.NewStore(nil)
		for _, app := range apps {
			snap, err := st.Load(app.Dir)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range snap.Files {
				c.ReviewSnapshotAt(f, -1, 0)
			}
		}
	}
}

// BenchmarkEvidenceParsed reads every seed-corpus file for evidence from
// ASTs parsed before timing: the evidence pass alone, which the load and
// parse in BenchmarkReviewCold would hide.
func BenchmarkEvidenceParsed(b *testing.B) {
	st := source.NewStore(nil)
	var files []*ast.File
	for _, app := range corpus.Apps() {
		snap, err := st.Load(app.Dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range snap.Files {
			syntax, err := f.Syntax()
			if err != nil {
				b.Fatal(err)
			}
			files = append(files, syntax)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			fileEvidence(f)
		}
	}
}
