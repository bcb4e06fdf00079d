package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "kind", "a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("events_total", "kind", "a"); same != c {
		t.Fatal("same identity must return the same counter")
	}
	if other := r.Counter("events_total", "kind", "b"); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("level")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("lat_ms", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hp, ok := snap.HistogramPoint("lat_ms")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hp.Count != 4 || hp.Sum != 555.5 {
		t.Fatalf("histogram count/sum = %d/%v, want 4/555.5", hp.Count, hp.Sum)
	}
	want := []int64{1, 1, 1, 1} // one per bucket incl. +Inf
	for i, n := range want {
		if hp.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hp.Counts[i], n, hp.Counts)
		}
	}
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "x", "1", "y", "2")
	b := r.Counter("m", "y", "2", "x", "1")
	if a != b {
		t.Fatal("label order must not create distinct instruments")
	}
	snap := r.Snapshot()
	if got := snap.Counter("m", "y", "2", "x", "1"); got != 0 {
		// counter was never incremented; presence check below
		t.Fatalf("lookup = %d, want 0", got)
	}
	if len(snap.Counters) != 1 {
		t.Fatalf("snapshot has %d counters, want 1", len(snap.Counters))
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z", LatencyBuckets).Observe(1)
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if _, err := snap.MarshalIndent(); err != nil {
		t.Fatal(err)
	}

	var o *Observer
	o.Reg().Counter("x").Inc()
	sp := o.Trc().Start("s", "c")
	sp.End()
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeterministicOrdering registers the same instruments in
// different orders from many goroutines and asserts the serialized
// snapshots are byte-identical — the ordering contract counters'
// cross-worker determinism rests on.
func TestSnapshotDeterministicOrdering(t *testing.T) {
	build := func(reverse bool) []byte {
		r := NewRegistry()
		names := []string{"a_total", "b_total", "c_total", "d_total"}
		apps := []string{"HD", "HB", "CA", "EL"}
		if reverse {
			for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
				names[i], names[j] = names[j], names[i]
			}
		}
		var wg sync.WaitGroup
		for _, n := range names {
			for _, app := range apps {
				wg.Add(1)
				go func(n, app string) {
					defer wg.Done()
					for i := 0; i < 100; i++ {
						r.Counter(n, "app", app).Inc()
					}
					r.Histogram("h_ms", LatencyBuckets, "app", app).Observe(1)
				}(n, app)
			}
		}
		wg.Wait()
		out, err := r.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatal("snapshots differ across registration order")
	}
}

// TestHostileLabelValuesRoundTrip: tenant names become label values
// verbatim, so values containing the identity-string separator bytes
// ('=', ',', '{', '}') and escape-worthy bytes must survive the trip
// through Snapshot untouched — the registry stores name and labels
// beside each instrument instead of re-parsing its identity string.
func TestHostileLabelValuesRoundTrip(t *testing.T) {
	hostile := "a=b,c{d}e\"f\\g\nh"
	r := NewRegistry()
	r.Counter("jobs_total", "tenant", hostile).Add(2)
	r.Gauge("depth", "tenant", hostile).Set(3)
	r.Histogram("lat_ms", []float64{1}, "tenant", hostile).Observe(0.5)

	snap := r.Snapshot()
	if got := snap.Counter("jobs_total", "tenant", hostile); got != 2 {
		t.Fatalf("counter lookup by hostile label = %d, want 2", got)
	}
	for _, c := range snap.Counters {
		if c.Name != "jobs_total" || len(c.Labels) != 1 || c.Labels[0].Key != "tenant" || c.Labels[0].Value != hostile {
			t.Fatalf("counter point corrupted: %+v", c)
		}
	}
	for _, g := range snap.Gauges {
		if g.Name != "depth" || g.Labels[0].Value != hostile {
			t.Fatalf("gauge point corrupted: %+v", g)
		}
	}
	hp, ok := snap.HistogramPoint("lat_ms", "tenant", hostile)
	if !ok || hp.Labels[0].Value != hostile {
		t.Fatalf("histogram point corrupted: ok=%v %+v", ok, hp)
	}
}

// TestRemoveGauge: eviction deletes a gauge's identity; re-registering
// it afterwards starts fresh.
func TestRemoveGauge(t *testing.T) {
	r := NewRegistry()
	r.Gauge("server_sched_queue_depth", "tenant", "acme").Set(7)
	r.Gauge("server_sched_queue_depth", "tenant", "other").Set(1)
	r.RemoveGauge("server_sched_queue_depth", "tenant", "acme")
	snap := r.Snapshot()
	if len(snap.Gauges) != 1 || snap.Gauges[0].Labels[0].Value != "other" {
		t.Fatalf("gauges after removal = %+v, want only tenant=other", snap.Gauges)
	}
	// Labels match in any order, same as registration.
	r.Gauge("g2", "a", "1", "b", "2").Set(5)
	r.RemoveGauge("g2", "b", "2", "a", "1")
	if n := len(r.Snapshot().Gauges); n != 1 {
		t.Fatalf("canonical-order removal missed: %d gauges", n)
	}
	// A re-created gauge is a fresh instrument.
	if v := r.Gauge("server_sched_queue_depth", "tenant", "acme").Value(); v != 0 {
		t.Fatalf("re-created gauge = %v, want 0", v)
	}
	// Nil registry and absent identities are no-ops.
	(*Registry)(nil).RemoveGauge("x")
	r.RemoveGauge("never_registered")
}

// TestFoldCounter: retire-and-fold as one registry operation — the
// source vanishes, the destination grows by its value, and edge cases
// (absent source, zero source, nil registry) stay quiet.
func TestFoldCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("server_sched_jobs_total", "tenant", "acme").Add(5)
	r.Counter("server_sched_jobs_total", "tenant", "other").Add(2)
	if v := r.FoldCounter("server_sched_jobs_total", []string{"tenant", "acme"}, []string{"tenant", "_retired"}); v != 5 {
		t.Fatalf("FoldCounter = %d, want 5", v)
	}
	snap := r.Snapshot()
	if got := snap.Counter("server_sched_jobs_total", "tenant", "_retired"); got != 5 {
		t.Fatalf("_retired after fold = %d, want 5", got)
	}
	for _, c := range snap.Counters {
		if c.Labels[0].Value == "acme" {
			t.Fatalf("source series survived the fold: %+v", c)
		}
	}
	// Folding again into the same destination accumulates.
	r.Counter("server_sched_jobs_total", "tenant", "acme").Add(3)
	r.FoldCounter("server_sched_jobs_total", []string{"tenant", "acme"}, []string{"tenant", "_retired"})
	if got := r.Snapshot().Counter("server_sched_jobs_total", "tenant", "_retired"); got != 8 {
		t.Fatalf("_retired after second fold = %d, want 8", got)
	}
	// A zero-valued source is removed without creating the destination.
	r2 := NewRegistry()
	r2.Counter("x", "tenant", "idle")
	if v := r2.FoldCounter("x", []string{"tenant", "idle"}, []string{"tenant", "_retired"}); v != 0 {
		t.Fatalf("zero-source fold = %d, want 0", v)
	}
	if n := len(r2.Snapshot().Counters); n != 0 {
		t.Fatalf("counters after zero-source fold = %d, want 0", n)
	}
	// Absent source and nil registry report 0 and touch nothing.
	if v := r.FoldCounter("never_registered", []string{"tenant", "a"}, []string{"tenant", "b"}); v != 0 {
		t.Fatalf("absent fold = %d, want 0", v)
	}
	if v := (*Registry)(nil).FoldCounter("x", nil, nil); v != 0 {
		t.Fatalf("nil fold = %d, want 0", v)
	}
}

// TestFoldCounterAtomicUnderScrape: the fold happens under one lock
// acquisition, so a concurrent scrape can never observe the family sum
// dipping — the "sums never go backwards" invariant, proven under -race.
func TestFoldCounterAtomicUnderScrape(t *testing.T) {
	r := NewRegistry()
	const tenants, per = 8, 3
	for i := 0; i < tenants; i++ {
		r.Counter("server_sched_jobs_total", "tenant", string(rune('a'+i))).Add(per)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < tenants; i++ {
			r.FoldCounter("server_sched_jobs_total",
				[]string{"tenant", string(rune('a' + i))},
				[]string{"tenant", "_retired"})
		}
	}()
	for {
		sum := int64(0)
		for _, c := range r.Snapshot().Counters {
			sum += c.Value
		}
		if sum != tenants*per {
			t.Fatalf("family sum mid-fold = %d, want invariant %d", sum, tenants*per)
		}
		select {
		case <-done:
			sum = 0
			for _, c := range r.Snapshot().Counters {
				sum += c.Value
			}
			if sum != tenants*per {
				t.Fatalf("family sum after folds = %d, want %d", sum, tenants*per)
			}
			return
		default:
		}
	}
}

// TestLabelledLookupAllocs pins the cost of looking up an existing
// instrument, the pipeline's hottest registry call: with up to two
// label pairs, given in either order, it allocates nothing — the label
// set and identity are rendered on the stack and only a first
// registration keeps a copy.
func TestLabelledLookupAllocs(t *testing.T) {
	r := NewRegistry()
	lookups := map[string][][]string{
		"none": {nil},
		"one":  {{"kind", "a"}},
		"two":  {{"kind", "a", "app", "HD"}, {"app", "HD", "kind", "a"}},
	}
	for name, orders := range lookups {
		for _, labels := range orders {
			c, g, h := r.Counter("events_total", labels...), r.Gauge("level", labels...), r.Histogram("ms", LatencyBuckets, labels...)
			n := testing.AllocsPerRun(100, func() {
				if r.Counter("events_total", labels...) != c || r.Gauge("level", labels...) != g ||
					r.Histogram("ms", LatencyBuckets, labels...) != h {
					t.Fatalf("%s labels %q: lookup returned a different instrument", name, labels)
				}
			})
			if n != 0 {
				t.Fatalf("%s labels %q: lookup of existing instruments allocates %v objects, want 0", name, labels, n)
			}
		}
	}
	// The literal call shape the pipeline uses, variadic args included.
	r.Counter("events_total", "kind", "a", "app", "HD")
	if n := testing.AllocsPerRun(100, func() { r.Counter("events_total", "app", "HD", "kind", "a").Inc() }); n != 0 {
		t.Fatalf("two-label counter lookup allocates %v objects, want 0", n)
	}
}

// BenchmarkRegistryLookup prices a lookup of an existing instrument by
// label count.
func BenchmarkRegistryLookup(b *testing.B) {
	r := NewRegistry()
	for _, bc := range []struct {
		name   string
		labels []string
	}{
		{"labels=0", nil},
		{"labels=1", []string{"kind", "a"}},
		{"labels=2", []string{"kind", "a", "app", "HD"}},
	} {
		r.Counter("events_total", bc.labels...)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Counter("events_total", bc.labels...).Inc()
			}
		})
	}
}
