package core_test

import (
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/source"
)

// BenchmarkRestartWarm prices the in-process half of a restarted
// daemon's first job: each op opens a fresh cache over a directory one
// cold run populated, and runs the seed corpus at 1 worker through a
// fresh snapshot store. Every review, facts and dynamic entry is read
// from disk and decoded, and nothing is parsed. Process start is not
// in this number (bench/run.sh's restart-warm workload has it).
func BenchmarkRestartWarm(b *testing.B) {
	dir := b.TempDir()
	run := func() *cache.Cache {
		ca, err := cache.New(cache.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Workers = 1
		opts.Cache = ca
		opts.Source = source.NewStore(nil)
		if _, err := core.New(opts).RunCorpus(corpus.Apps()); err != nil {
			b.Fatal(err)
		}
		return ca
	}
	run()
	if st := run().Stats(); st.Misses[cache.StageFacts] != 0 || st.Misses[cache.StageReview] != 0 {
		b.Fatalf("restart missed %d facts and %d review entries, want every one from disk",
			st.Misses[cache.StageFacts], st.Misses[cache.StageReview])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
