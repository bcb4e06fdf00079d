// log.go is the daemon's structured logging surface. Every event the
// daemon emits about a job carries the job's correlation identity —
// job_id, tenant, trace_id — so one grep (or one log-pipeline filter)
// reconstructs a job's full lifecycle and joins it to its span tree
// (GET /v1/jobs/{id}/trace) and to the per-tenant cost series. This is
// the per-request provenance the §4.3 cost accounting needs in a served
// setting: which job retried, which degraded, what it cost and for whom.
//
// Events are named constants, never inline strings, and the catalog in
// docs/OBSERVABILITY.md must list every one (scripts/docs_check.sh
// enforces it). The logger itself is log/slog: cmd/wasabid picks the
// handler (-log-format text|json, -log-level) and hands it in via
// Config.Log; a nil Config.Log discards, so tests and embedded use pay
// only for the event-assembly they observe.
package server

import (
	"context"
	"io"
	"log/slog"
	"math"
	"time"
)

// Log event names. One constant per distinct daemon happening; the
// docs/OBSERVABILITY.md log-event catalog documents each one's fields.
const (
	// evServerStart: the daemon bound its listener and started its
	// scheduler slots. Fields: addr, slots, version.
	evServerStart = "server.start"
	// evServerDrain: shutdown began; admission is closed and accepted
	// jobs are running to completion.
	evServerDrain = "server.drain"
	// evServerStop: drain finished and the listener closed. Fields:
	// uptime_s.
	evServerStop = "server.stop"
	// evJobAccepted: a submission passed validation and entered its
	// tenant's queue. Fields: job identity, apps, queue_depth.
	evJobAccepted = "job.accepted"
	// evJobRejected: a submission was refused. Fields: tenant, reason
	// (draining | queue-full), status (the HTTP code sent).
	evJobRejected = "job.rejected"
	// evJobStart: a scheduler slot picked the job and the pipeline run
	// began. Fields: job identity, queue_wait_ms.
	evJobStart = "job.start"
	// evJobFinish: the run completed (either way). Fields: job identity,
	// state (done | failed), run_ms, fresh_tokens, spans, error.
	evJobFinish = "job.finish"
	// evJobDegraded: the job completed but one or more file reviews fell
	// back to static-only analysis. Fields: job identity, degraded_files.
	evJobDegraded = "job.degraded"
	// evTenantEvicted: a tenant went idle (empty queue, zero in-flight)
	// and the scheduler reclaimed its state. Fields: tenant.
	evTenantEvicted = "sched.tenant_evicted"
)

// discardLogger is the nil-Config.Log default: a real *slog.Logger (so
// call sites never nil-check) whose level no record reaches, so events
// are never formatted.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
}

// logJob emits a job-scoped event at Info with the job's correlation
// identity (job_id, tenant, trace_id) first. It hands the record to the
// handler itself, as Logger.Info would but with no caller PC: Info
// walks the stack for one on every record, and the daemon's handlers
// (cmd/wasabid's buildLogger) do not set AddSource, so none reads it.
func (s *Server) logJob(ev string, j *job, args ...any) {
	h := s.log.Handler()
	if !h.Enabled(context.Background(), slog.LevelInfo) {
		return
	}
	r := slog.NewRecord(time.Now(), slog.LevelInfo, ev, 0)
	r.AddAttrs(slog.String("job_id", j.id), slog.String("tenant", j.tenant), slog.String("trace_id", j.traceID))
	r.Add(args...)
	_ = h.Handle(context.Background(), r)
}
