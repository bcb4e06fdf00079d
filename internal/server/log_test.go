package server

import (
	"bytes"
	"io"
	"log/slog"
	"regexp"
	"testing"
)

// TestLogJobMatchesLoggerInfo: logJob, which hands its record to the
// handler without a caller PC, writes the same text and JSON lines as
// Logger.Info with the job identity first, but for the time.
func TestLogJobMatchesLoggerInfo(t *testing.T) {
	j := &job{id: "job-7", tenant: "team a", traceID: "0af7651916cd43dd"}
	events := []struct {
		ev   string
		args []any
	}{
		{evJobAccepted, []any{"apps", 3, "queue_depth", 1}},
		{evJobStart, []any{"queue_wait_ms", 1.25}},
		{evJobDegraded, []any{"degraded_files", int64(2)}},
		{evJobFinish, []any{"state", "failed", "run_ms", 2.5, "error", "boom \"quoted\"\nnext line"}},
		{evJobFinish, []any{"dangling"}},
	}
	timeField := map[string]*regexp.Regexp{
		"text": regexp.MustCompile(`(?m)^time=\S+ `),
		"json": regexp.MustCompile(`(?m)^\{"time":"[^"]*",`),
	}
	// handler is cmd/wasabid's buildLogger handler for format.
	handler := func(format string, w io.Writer, level slog.Level) slog.Handler {
		opts := &slog.HandlerOptions{Level: level}
		if format == "json" {
			return slog.NewJSONHandler(w, opts)
		}
		return slog.NewTextHandler(w, opts)
	}
	for _, format := range []string{"text", "json"} {
		var got, want bytes.Buffer
		s := &Server{log: slog.New(handler(format, &got, slog.LevelInfo))}
		ref := slog.New(handler(format, &want, slog.LevelInfo))
		for _, e := range events {
			s.logJob(e.ev, j, e.args...)
			ref.Info(e.ev, append([]any{"job_id", j.id, "tenant", j.tenant, "trace_id", j.traceID}, e.args...)...)
		}
		if n := len(timeField[format].FindAllString(got.String(), -1)); n != len(events) {
			t.Fatalf("%s: %d of %d lines start with a time:\n%s", format, n, len(events), got.String())
		}
		g := timeField[format].ReplaceAllString(got.String(), "")
		w := timeField[format].ReplaceAllString(want.String(), "")
		if g != w {
			t.Errorf("%s: logJob wrote\n%s\nLogger.Info writes\n%s", format, g, w)
		}

		var quiet bytes.Buffer
		s = &Server{log: slog.New(handler(format, &quiet, slog.LevelWarn))}
		s.logJob(evJobStart, j, "queue_wait_ms", 1.0)
		if quiet.Len() != 0 {
			t.Errorf("%s: logJob wrote %q at level warn", format, quiet.String())
		}
	}
}
