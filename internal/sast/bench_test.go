package sast

// bench_test measures the static tier's cold per-file path: read, hash,
// parse and extract every file of the seed corpus. `make bench` runs it
// for profiling; performance numbers come from the repository benchmark
// (docs/PERFORMANCE.md).

import (
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/source"
)

// BenchmarkExtractFactsCold extracts the facts of every seed-corpus file
// from a fresh store each iteration, so every file is loaded, parsed and
// extracted, as on a cold daemon or after an edit.
func BenchmarkExtractFactsCold(b *testing.B) {
	apps := corpus.Apps()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := source.NewStore(nil)
		for _, app := range apps {
			snap, err := st.Load(app.Dir)
			if err != nil {
				b.Fatal(err)
			}
			for _, f := range snap.Files {
				if _, err := extractFacts(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
