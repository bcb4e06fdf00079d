package server

import (
	"runtime"
	"testing"
)

// The ceilings of TestWarmJobAllocCeiling: what one warm seed-corpus
// job allocated when they were set, plus 10%. Before the report, the
// views and the derived tables stopped being rebuilt per job, the same
// job allocated about 232 KB in 920 objects; before identify's merge,
// the WHEN and IF results, the dynamic key and the report were kept
// between jobs and spans came from one chunk, 203 KB in 622; before a
// span record shrank from 256 to 96 bytes, its args drawn from a slab,
// 39,421 B in 96.
const (
	warmJobBytesCeiling  = 38_188 // 34,717 measured
	warmJobAllocsCeiling = 105    // 96 measured
)

// TestWarmJobAllocCeiling: a warm job through Server.run is all cache
// and memo hits, so what it allocates is its view's head, its trace
// and the bookkeeping of its lookups. A change that brings a per-job rebuild
// of something the caches already hold back fails here.
func TestWarmJobAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the seed corpus")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random, so a job's allocations vary")
	}
	job := warmJobs(t, Config{PipelineWorkers: 1})
	// As testing.AllocsPerRun does, count on one P so that nothing but
	// the jobs allocates in between.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	job()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("a warm seed-corpus job allocates %d B in %d objects", bytes, allocs)
	if bytes > warmJobBytesCeiling || allocs > warmJobAllocsCeiling {
		t.Fatalf("a warm seed-corpus job allocates %d B in %d objects, want at most %d B in %d",
			bytes, allocs, warmJobBytesCeiling, warmJobAllocsCeiling)
	}
}
