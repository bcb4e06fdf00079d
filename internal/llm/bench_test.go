package llm

// bench_test measures the model's cold per-file path: read, hash, parse
// and review every file of the seed corpus. `make bench` runs it for
// profiling; performance numbers come from the repository benchmark
// (docs/PERFORMANCE.md).

import (
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
