package sast

// bench_test measures the static tier's cold per-file path (read, hash,
// parse and extract every file of the seed corpus), the extraction pass
// alone over files parsed before timing, and the warm cross-file merge.
// `make bench` runs it for profiling; performance numbers come from the
// repository benchmark (docs/PERFORMANCE.md).

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

// BenchmarkAnalyzeSnapshotWarm runs the cross-file merge over every
// seed-corpus snapshot of one store whose files were analyzed once
// before timing, so each file's facts come from its memo: the work a
// warm job would pay for each app without the whole-app analysis tier.
func BenchmarkAnalyzeSnapshotWarm(b *testing.B) {
	st := source.NewStore(nil)
	var snaps []*source.Snapshot
	for _, app := range corpus.Apps() {
		snap, err := st.Load(app.Dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := AnalyzeSnapshot(snap); err != nil {
			b.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, snap := range snaps {
			if _, err := AnalyzeSnapshot(snap); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExtractFactsParsed extracts the facts of every seed-corpus
// file from ASTs parsed before timing: the extraction pass alone, which
// the load and parse in BenchmarkExtractFactsCold would hide.
func BenchmarkExtractFactsParsed(b *testing.B) {
	st := source.NewStore(nil)
	var files []*source.File
	for _, app := range corpus.Apps() {
		snap, err := st.Load(app.Dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range snap.Files {
			if _, err := f.Syntax(); err != nil {
				b.Fatal(err)
			}
			files = append(files, f)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range files {
			if _, err := extractFacts(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}
