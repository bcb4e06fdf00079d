// Package obs is the pipeline's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) plus
// span-based tracing of pipeline stages.
//
// The paper's test oracles work by post-processing per-test traces
// (§3.1.3); obs applies the same record-then-inspect design to the
// pipeline itself — identify → LLM review → plan → inject → oracle — so
// a run's stage latencies, worker-pool utilization, injection throughput
// and LLM token spend are inspectable artifacts rather than guesses.
// docs/OBSERVABILITY.md catalogs every metric and the span hierarchy.
//
// Two determinism tiers, by construction:
//
//   - Counters count logical pipeline events (files reviewed, injections
//     fired, oracle reports, tokens spent). The pipeline executes the
//     same logical events at every Options.Workers setting, so counter
//     snapshots are byte-identical across worker counts — the same
//     contract internal/core's reducers give results.
//   - Gauges, histograms and spans carry wall-clock and scheduling
//     facts (stage latency, pool occupancy, lane assignment). They are
//     honest measurements and therefore vary run to run.
//
// Every type is nil-safe: methods on a nil *Registry, *Tracer, *Span,
// *Counter, *Gauge or *Histogram are no-ops that return nil children, so
// instrumentation sites call unconditionally and an unobserved pipeline
// pays only a nil check.
package obs

// Observer bundles the two observability surfaces a pipeline run carries.
// A nil *Observer is valid and disables both.
type Observer struct {
	// Metrics is the run's metrics registry.
	Metrics *Registry
	// Tracer is the run's span tracer.
	Tracer *Tracer
}

// New returns an Observer with a fresh registry and tracer.
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Tracer: NewTracer()}
}

// Reg returns the registry, or nil on a nil observer.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Trc returns the tracer, or nil on a nil observer.
func (o *Observer) Trc() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// WithTracer returns an Observer that shares this observer's metrics
// registry but records spans into tr. The wasabid daemon scopes
// observability per job this way: metrics stay fleet-wide (one registry
// behind /metrics) while each job gets a private tracer, so concurrent
// jobs' span trees are isolated by construction. Safe on nil (the
// result then carries a nil registry).
func (o *Observer) WithTracer(tr *Tracer) *Observer {
	return &Observer{Metrics: o.Reg(), Tracer: tr}
}

// StageMetric is the histogram every stage observes its wall time into
// (label: stage).
const StageMetric = "core_stage_ms"
