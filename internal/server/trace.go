// trace.go is the finished-job half of the job table: every job records
// its own span tree (a per-job obs.Tracer), and when the job finishes
// its record keeps the finished tracer and its GET /v1/traces index row
// for as long as the job table keeps the job (Server.retireLocked, the
// daemon's one retention rule). A trace is serialized to Chrome
// trace-event JSON at most once, on the first read of it or of the
// index (whose byte counts need it), so a trace nobody reads is never
// encoded. "Why was tenant X's job slow?" is answerable after the fact
// without any external tracing infrastructure: GET /v1/jobs/{id}/trace
// returns the file Perfetto opens directly, and GET /v1/traces lists
// what the table still holds.
//
// Retention is bounded by count (Config.TraceRing, default
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

// DefaultTraceRing is how many finished jobs, with their traces, the
// daemon retains when Config.TraceRing is zero.
const DefaultTraceRing = 64

// traceMeta is one finished job's index row — everything about its
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

// traceEntry is a finished job's trace: its index row (Bytes unset until
// encoded) plus the finished tracer, encoded once by encoded.
type traceEntry struct {
	meta traceMeta

	once sync.Once
	tr   *obs.Tracer // dropped once encoded
	data []byte
}

// encoded returns the entry's Chrome trace-event JSON, encoding the
// tracer on first use. Callers run it outside Server.mu.
func (e *traceEntry) encoded() []byte {
	e.once.Do(func() {
		var buf bytes.Buffer
		e.tr.WriteJSON(&buf) //nolint:errcheck // bytes.Buffer cannot fail
		e.data, e.tr = buf.Bytes(), nil
	})
	return e.data
}

// trace returns job id's encoded trace, or nil while the job has not
// finished; known reports whether the job table holds id at all.
func (s *Server) trace(id string) (data []byte, known bool) {
	s.mu.Lock()
	j, known := s.jobs[id]
	var e *traceEntry
	if known {
		e = j.trace
	}
	s.mu.Unlock()
	if e == nil {
		return nil, known
	}
	return e.encoded(), true
}

// traceIndex lists the retained jobs' index rows, newest first, with
// each trace's exact serialized size (encoding any not yet read).
func (s *Server) traceIndex() []traceMeta {
	s.mu.Lock()
	entries := make([]*traceEntry, len(s.finished))
	for i, j := range s.finished {
		entries[len(entries)-1-i] = j.trace
	}
	s.mu.Unlock()
	out := make([]traceMeta, len(entries))
	for i, e := range entries {
		out[i] = e.meta
		out[i].Bytes = len(e.encoded())
	}
	return out
}
