package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. Per-layer metrics carry no
// bounds.
type metricDef struct {
	Name, Unit, Better string
	// Bound and Floor are what -agree allows: an end-to-end metric may
	// worsen by Bound × the baseline median, or by Floor (in Unit) if
	// that is more, before a change counts as a regression. So a zero
	// baseline allows no worsening at all.
	Bound, Floor float64
	// Gate is the metric's bound in BENCHMARK.json, 0 for a metric the
	// file leaves out. The file's bounds are shares of a median with no
	// floor and no "unresolved" verdict, so they only hold if ten runs of
	// the same code spread well under them. So Gate is the smallest bound
	// the measured spreads support (README.md, "Bounds"), and a metric
	// that is 0 on some workload is left out.
	Gate float64
}

// endToEnd are the metrics a user of the daemon sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Floor: 0.025, Gate: 0.25},
	{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "job_ms_p90", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Gate: 0.25},
	{Name: "daemon_cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.10, Gate: 0.25},
	{Name: "daemon_rss_mb_peak", Unit: "MB", Better: "lower", Bound: 0.10, Gate: 0.25},
	// 0 on warm-corpus and restart-warm.
	{Name: "fresh_tokens_per_job", Unit: "tokens", Better: "lower", Bound: 0.02},
	// 0 on every correct run.
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0},
}

// gated returns the end-to-end metrics BENCHMARK.json lists.
func gated() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Gate > 0 {
			out = append(out, d)
		}
	}
	return out
}

// perLayer are the traced run's metrics, per job unless the name says
// otherwise. Layer names are the repository's module names.
var perLayer = []metricDef{
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "server.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.run_ms", Unit: "ms", Better: "lower"},
	{Name: "process.ready_ms", Unit: "ms", Better: "lower"},
	{Name: "core.identify_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.dynamic_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.static_ms", Unit: "ms", Better: "lower"},
	{Name: "core.if_ms", Unit: "ms", Better: "lower"},
	{Name: "source.load_ms", Unit: "ms", Better: "lower"},
	{Name: "source.files", Unit: "count", Better: "lower"},
	{Name: "source.bytes", Unit: "bytes", Better: "lower"},
	{Name: "source.parses", Unit: "count", Better: "lower"},
	{Name: "sast.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "sast.extracts", Unit: "count", Better: "lower"},
	{Name: "sast.hydrations", Unit: "count", Better: "lower"},
	{Name: "cache.get_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.put_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.disk_loads", Unit: "count", Better: "lower"},
	{Name: "llm.review_ms", Unit: "ms", Better: "lower"},
	{Name: "llm.reviews", Unit: "count", Better: "lower"},
	{Name: "llm.fresh_tokens", Unit: "tokens", Better: "lower"},
	{Name: "planner.collect_ms", Unit: "ms", Better: "lower"},
	{Name: "planner.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "planner.entries", Unit: "count", Better: "lower"},
	{Name: "testkit.run_ms", Unit: "ms", Better: "lower"},
	{Name: "testkit.runs", Unit: "count", Better: "lower"},
	{Name: "testkit.failed_runs", Unit: "count", Better: "lower"},
	{Name: "fault.throws", Unit: "count", Better: "lower"},
	{Name: "oracle.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "oracle.reports", Unit: "count", Better: "lower"},
	{Name: "oracle.distinct_ratio", Unit: "ratio", Better: "higher"},
	{Name: "report.build_ms", Unit: "ms", Better: "lower"},
	{Name: "report.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "report.bytes", Unit: "bytes", Better: "lower"},
	{Name: "replay.job_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.untraced_job_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "replay.self_time_share", Unit: "ratio", Better: "higher"},
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// minSamples is the smallest sample count that supports percentile q:
// p90 needs 100 samples, so that ten lie beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(minTail/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-percentile of xs: a measured
// sample, never an interpolation. xs is sorted in place; callers check
// minSamples first.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (mean of the middle two for even
// counts); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so the spreads recorded here match the ones the repeat
// protocol in bench/README.md describes. xs is sorted in place; fewer
// than two values give the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// summary is one metric's distribution over a set of runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	ys := append([]float64(nil), xs...)
	q1, q3 := quartiles(ys)
	return summary{Median: median(ys), Q1: q1, Q3: q3, N: len(ys)}
}

// spread is the quartile distance as a share of the median (0 for a
// median of 0).
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// allowance is how much worse than baseline a a median may read before
// it counts as a regression, in the metric's unit.
func allowance(def metricDef, a summary) float64 {
	return math.Max(def.Bound*math.Abs(a.Median), def.Floor)
}

// worsening is how much worse b's median is than a's, in the metric's
// unit (negative when b is better).
func worsening(def metricDef, a, b summary) float64 {
	d := b.Median - a.Median
	if def.Better == "higher" {
		d = -d
	}
	return d
}

// Verdicts of comparing two sets of runs for one workload × metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares set b against baseline a: "unresolved" when either
// set's quartile distance is wider than the allowance (the runs cannot
// resolve a change that small), "regressed" when b's median is worse
// than a's by more than the allowance, "ok" otherwise.
func verdict(def metricDef, a, b summary) string {
	allow := allowance(def, a)
	if a.Q3-a.Q1 > allow || b.Q3-b.Q1 > allow {
		return verdictUnresolved
	}
	if worsening(def, a, b) > allow {
		return verdictRegressed
	}
	return verdictOK
}
