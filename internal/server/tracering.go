// tracering.go is the daemon's bounded in-memory store of completed job
// traces. Every job records its own span tree (a per-job obs.Tracer);
// when the job finishes, the finished tracer is kept here, newest jobs
// displacing oldest. A trace is serialized to Chrome trace-event JSON at
// most once, on the first read of it or of the index (whose byte counts
// need it), so a trace nobody reads is never encoded. "Why was tenant
// X's job slow?" is answerable after the fact without any external
// tracing infrastructure: GET /v1/jobs/{id}/trace returns the file
// Perfetto opens directly, and GET /v1/traces lists what the ring still
// holds.
//
// The ring is bounded by count (Config.TraceRing, default
// DefaultTraceRing) because trace size is roughly constant per corpus
// job; eviction is strictly oldest-first and counted in
// server_trace_ring_evictions_total. Traces do not survive a daemon
// restart — a documented limit (docs/KNOWN_ISSUES.md), acceptable
// because traces are diagnostics, not records. Applies §3.1.3's
// record-then-inspect discipline to the serving layer itself.
package server

import (
	"bytes"
	"sync"

	"wasabi/internal/obs"
)

// DefaultTraceRing is how many completed job traces the daemon retains
// when Config.TraceRing is zero.
const DefaultTraceRing = 64

// traceMeta is one ring entry's index row — everything about a stored
// trace except the trace body itself. It is the GET /v1/traces wire
// shape.
type traceMeta struct {
	JobID   string `json:"job_id"`
	Tenant  string `json:"tenant"`
	TraceID string `json:"trace_id"`
	// State is the job's terminal state ("done" | "failed").
	State string `json:"state"`
	// Spans counts the trace's complete events; DurationMS is
	// submission → completion; Bytes is the serialized trace size.
	Spans      int     `json:"spans"`
	DurationMS float64 `json:"duration_ms"`
	Bytes      int     `json:"bytes"`
}

// traceEntry is one stored trace: its index row (Bytes unset until
// encoded) plus the finished tracer, encoded once by encoded.
type traceEntry struct {
	meta traceMeta

	once sync.Once
	tr   *obs.Tracer // dropped once encoded
	data []byte
}

// encoded returns the entry's Chrome trace-event JSON, encoding the
// tracer on first use. Encoding runs outside the ring's lock.
func (e *traceEntry) encoded() []byte {
	e.once.Do(func() {
		var buf bytes.Buffer
		e.tr.WriteJSON(&buf) //nolint:errcheck // bytes.Buffer cannot fail
		e.data, e.tr = buf.Bytes(), nil
	})
	return e.data
}

// traceRing holds the most recent completed traces, oldest evicted
// first.
type traceRing struct {
	cap int
	reg *obs.Registry

	mu    sync.Mutex
	byJob map[string]*traceEntry
	order []string // job ids, oldest first
}

// newTraceRing returns an empty ring holding up to capacity traces
// (zero or negative capacity takes DefaultTraceRing).
func newTraceRing(capacity int, reg *obs.Registry) *traceRing {
	if capacity <= 0 {
		capacity = DefaultTraceRing
	}
	r := &traceRing{cap: capacity, reg: reg, byJob: make(map[string]*traceEntry)}
	reg.Gauge("server_trace_ring_capacity").Set(float64(capacity))
	return r
}

// put stores a completed job's finished tracer, evicting the oldest
// entry when the ring is full. Nothing may record on tr afterwards.
func (r *traceRing) put(meta traceMeta, tr *obs.Tracer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.order) >= r.cap {
		oldest := r.order[0]
		r.order = r.order[1:]
		delete(r.byJob, oldest)
		r.reg.Counter("server_trace_ring_evictions_total").Inc()
	}
	r.byJob[meta.JobID] = &traceEntry{meta: meta, tr: tr}
	r.order = append(r.order, meta.JobID)
	r.reg.Gauge("server_trace_ring_entries").Set(float64(len(r.order)))
}

// get returns the serialized trace for a job id, if the ring still holds
// it.
func (r *traceRing) get(jobID string) ([]byte, bool) {
	r.mu.Lock()
	e, ok := r.byJob[jobID]
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.encoded(), true
}

// index lists the held traces' metadata, newest first, with each
// trace's exact serialized size (encoding any not yet read).
func (r *traceRing) index() []traceMeta {
	r.mu.Lock()
	entries := make([]*traceEntry, 0, len(r.order))
	for i := len(r.order) - 1; i >= 0; i-- {
		entries = append(entries, r.byJob[r.order[i]])
	}
	r.mu.Unlock()
	out := make([]traceMeta, len(entries))
	for i, e := range entries {
		out[i] = e.meta
		out[i].Bytes = len(e.encoded())
	}
	return out
}
