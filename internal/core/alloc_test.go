package core_test

import (
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/obs"
	"wasabi/internal/source"
)

// warmJobAllocCeiling bounds what one warm seed-corpus run allocates
// (TestWarmRunAllocCeiling): the measured 72 objects plus 10%. Before
// metric lookups, span args and cache keys stopped making garbage, the
// same run allocated 2,488; before review keys, analysis keys,
// snapshots and retry tables were derived once per version instead of
// once per run, 725; before identify's merge, the WHEN and IF results,
// the dynamic result and the span names were kept between runs and
// spans came from one chunk, 506.
const warmJobAllocCeiling = 79

// TestWarmRunAllocCeiling: a warm run over a shared cache, snapshot
// store and registry, traced like a daemon job, is all cache and memo
// hits, so what it allocates is bookkeeping: its spans, its review
// slots and its worker-pool tasks. A change that brings per-lookup,
// per-span or per-run derivation garbage back fails here.
func TestWarmRunAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the seed corpus")
	}
	reg := obs.NewRegistry()
	ca, err := cache.New(cache.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	store := source.NewStore(reg)
	apps := corpus.Apps()
	run := func() {
		tr := obs.NewTracer()
		tr.SetCommonArgs("job_id", "job-1", "tenant", "t", "trace_id", "0123456789abcdef")
		tr.SetRootParent("run")
		opts := core.DefaultOptions()
		opts.Workers = 1
		opts.Obs = &obs.Observer{Metrics: reg, Tracer: tr}
		opts.Cache = ca
		opts.Source = store
		if _, err := core.New(opts).RunCorpus(apps); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if n := testing.AllocsPerRun(20, run); n > warmJobAllocCeiling {
		t.Fatalf("a warm seed-corpus run allocates %.0f objects, want at most %d", n, warmJobAllocCeiling)
	} else {
		t.Logf("a warm seed-corpus run allocates %.0f objects", n)
	}
}
