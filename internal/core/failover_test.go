package core

import (
	"testing"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
)

// failoverRun executes the full pipeline with reviews routed across a
// multi-backend topology and returns the run plus its metrics snapshot.
func failoverRun(t *testing.T, spec string, workers int) (*CorpusRun, obs.Snapshot) {
	t.Helper()
	specs, err := llm.ParseBackends(spec)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Workers = workers
	opts.Obs = obs.New()
	opts.LLM.Backends = specs
	cr, err := New(opts).RunCorpus(corpus.Apps())
	if err != nil {
		t.Fatalf("backends %q workers %d: %v", spec, workers, err)
	}
	return cr, opts.Obs.Reg().Snapshot()
}

// TestPrimaryOutageFailoverZeroDegraded is the headline availability
// claim: a hard primary outage with a healthy secondary completes the
// full corpus through failover with ZERO degraded files, and — because
// review answers are a pure function of (config, path, contents), the
// transport only delivers or fails — the pipeline output is
// byte-identical to a healthy single-backend run. Run under -race (make
// chaos does): the routing layer is concurrent by construction.
func TestPrimaryOutageFailoverZeroDegraded(t *testing.T) {
	healthy, _ := chaosRun(t, nil, 4)
	cr, snap := failoverRun(t, "primary=sim:outage;secondary=sim", 4)

	if cr.Degraded {
		t.Fatal("run marked degraded despite a healthy secondary")
	}
	for _, ar := range cr.Apps {
		if n := len(ar.ID.Degraded); n != 0 {
			t.Errorf("%s: %d degraded files, want 0 (first: %+v)", ar.App.Code, n, ar.ID.Degraded[0])
		}
	}
	if got, want := renderRun(cr), renderRun(healthy); got != want {
		t.Error("failover output differs from the healthy baseline")
	}

	// Every review failed over: the secondary carried the corpus.
	failovers, primaryFails := int64(0), int64(0)
	for _, c := range snap.Counters {
		switch {
		case c.Name == "llm_backend_failovers_total" && hasLabel([]obs.Label(c.Labels), "backend", "secondary"):
			failovers += c.Value
		case c.Name == "llm_backend_failures_total" && hasLabel([]obs.Label(c.Labels), "backend", "primary"):
			primaryFails += c.Value
		}
	}
	if failovers == 0 {
		t.Error("no failovers recorded into the secondary")
	}
	if primaryFails == 0 {
		t.Error("no primary failures recorded")
	}
}

// TestFlakyPrimaryFailoverMatchesBaseline: a heavily transient primary
// with a healthy secondary also converges on the healthy baseline —
// whatever the primary drops, retries or the secondary absorb.
func TestFlakyPrimaryFailoverMatchesBaseline(t *testing.T) {
	healthy, _ := chaosRun(t, nil, 4)
	cr, _ := failoverRun(t, "primary=sim:heavy;secondary=sim", 4)
	if cr.Degraded {
		t.Fatal("run marked degraded despite a healthy secondary")
	}
	if got, want := renderRun(cr), renderRun(healthy); got != want {
		t.Error("flaky-primary failover output differs from the healthy baseline")
	}
}

// TestSingleHealthyBackendMatchesBaseline: routing through a one-entry
// topology is output-equivalent to no routing at all — multi-backend
// mode adds availability machinery, not answers.
func TestSingleHealthyBackendMatchesBaseline(t *testing.T) {
	healthy, _ := chaosRun(t, nil, 2)
	cr, _ := failoverRun(t, "only=sim", 2)
	if got, want := renderRun(cr), renderRun(healthy); got != want {
		t.Error("single-backend routed output differs from the unrouted baseline")
	}
}

// TestSimTopologyDeterministicAcrossWorkers: a topology of built-in
// simulators is replayable — the router settles every review in its
// canonical (app, file) budget turn from the backends' pure fault
// schedules, failing over in order — so the rendered output AND the
// metrics counters are byte-identical at every worker count, failovers
// and breaker trips included.
func TestSimTopologyDeterministicAcrossWorkers(t *testing.T) {
	for _, spec := range []string{
		"primary=sim:outage;secondary=sim",
		"primary=sim:heavy;secondary=sim",
		"a=sim:light;b=sim:heavy,malformed=25",
	} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			var wantRender, wantCounters string
			for _, workers := range []int{1, 2, 4} {
				cr, snap := failoverRun(t, spec, workers)
				render := renderRun(cr)
				counters, err := snap.CountersJSON()
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					wantRender, wantCounters = render, string(counters)
					continue
				}
				if render != wantRender {
					t.Fatalf("workers=%d output differs from workers=1:\n%s\nvs\n%s", workers, render, wantRender)
				}
				if string(counters) != wantCounters {
					t.Fatalf("workers=%d counters differ from workers=1:\n%s\nvs\n%s", workers, counters, wantCounters)
				}
			}
		})
	}
}

// hasLabel reports whether a snapshot label set carries key=value.
func hasLabel(labels []obs.Label, key, value string) bool {
	for _, l := range labels {
		if l.Key == key && l.Value == value {
			return true
		}
	}
	return false
}
