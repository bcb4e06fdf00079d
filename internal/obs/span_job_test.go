package obs

// span_job_test.go covers the per-job tracer scoping the wasabid daemon
// uses: common correlation args on every span, retrospective Record
// spans, root re-parenting, and post-hoc span annotation.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// decodeSpans parses a serialized trace into its complete events and
// metadata events.
func decodeSpans(t *testing.T, tr *Tracer) (spans []chromeEvent, meta []chromeEvent) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		} else {
			meta = append(meta, ev)
		}
	}
	return spans, meta
}

func TestScopedTracerCommonArgsAndRootParent(t *testing.T) {
	anchor := time.Now().Add(-50 * time.Millisecond)
	tr := NewTracerAt(anchor)
	tr.SetProcessName("wasabid job-1")
	tr.SetCommonArgs("job_id", "job-1", "tenant", "acme", "trace_id", "abc123")
	tr.SetRootParent("run")

	root := tr.Start("corpus", "pipeline")
	child := tr.Start("app:HD", "app", "parent", "corpus")
	child.SetArg("cached", "true")
	child.End()
	root.End()

	now := time.Now()
	tr.Record("queue-wait", "sched", anchor, anchor.Add(10*time.Millisecond), "parent", "job")
	tr.Record("run", "sched", anchor.Add(10*time.Millisecond), now, "parent", "job")
	tr.Record("job", "job", anchor, now, "state", "done")

	if got := tr.SpanCount(); got != 5 {
		t.Fatalf("SpanCount = %d, want 5", got)
	}
	spans, meta := decodeSpans(t, tr)
	if len(spans) != 5 {
		t.Fatalf("serialized %d complete events, want 5", len(spans))
	}
	byName := map[string]chromeEvent{}
	for _, ev := range spans {
		byName[ev.Name] = ev
		// Common args reach every span, Start'd and Recorded alike.
		if ev.Args["job_id"] != "job-1" || ev.Args["tenant"] != "acme" || ev.Args["trace_id"] != "abc123" {
			t.Fatalf("span %q missing common args: %v", ev.Name, ev.Args)
		}
		if ev.TS < 0 {
			t.Fatalf("span %q ts = %d, want >= 0 (anchored at submission)", ev.Name, ev.TS)
		}
	}
	// The parentless Start'd root adopts the configured root parent...
	if got := byName["corpus"].Args["parent"]; got != "run" {
		t.Fatalf("corpus parent = %q, want run", got)
	}
	// ...explicit parentage wins over it...
	if got := byName["app:HD"].Args["parent"]; got != "corpus" {
		t.Fatalf("app:HD parent = %q, want corpus", got)
	}
	// ...and Recorded spans keep exactly the parentage they were given,
	// so the true root stays a root.
	if got := byName["queue-wait"].Args["parent"]; got != "job" {
		t.Fatalf("queue-wait parent = %q, want job", got)
	}
	if _, ok := byName["job"].Args["parent"]; ok {
		t.Fatalf("job span acquired a parent: %v", byName["job"].Args)
	}
	// SetArg annotation and explicit Record args survive the common-arg
	// merge.
	if byName["app:HD"].Args["cached"] != "true" || byName["job"].Args["state"] != "done" {
		t.Fatalf("span annotations lost: app=%v job=%v", byName["app:HD"].Args, byName["job"].Args)
	}
	// Process metadata reflects the override.
	named := false
	for _, ev := range meta {
		if ev.Name == "process_name" && ev.Args["name"] == "wasabid job-1" {
			named = true
		}
	}
	if !named {
		t.Fatalf("process_name metadata not overridden: %v", meta)
	}
}

// TestCommonArgsDoNotOverrideExplicit: a span arg that collides with a
// common key keeps the span's value.
func TestCommonArgsDoNotOverrideExplicit(t *testing.T) {
	tr := NewTracer()
	tr.SetCommonArgs("tenant", "common")
	sp := tr.Start("s", "c", "tenant", "explicit")
	sp.End()
	spans, _ := decodeSpans(t, tr)
	if got := spans[0].Args["tenant"]; got != "explicit" {
		t.Fatalf("tenant arg = %q, want the span's explicit value", got)
	}
}

// TestRecordDoesNotHoldLanes: retrospective spans reuse lane 0 rather
// than widening the lane axis.
func TestRecordDoesNotHoldLanes(t *testing.T) {
	tr := NewTracer()
	now := time.Now()
	for i := 0; i < 3; i++ {
		tr.Record("r", "c", now.Add(-time.Millisecond), now)
	}
	spans, _ := decodeSpans(t, tr)
	for _, ev := range spans {
		if ev.TID != 1 {
			t.Fatalf("recorded span on tid %d, want 1 (lane freed per record)", ev.TID)
		}
	}
}

// TestNilTracerJobSurface: the per-job API is nil-safe like the rest of
// the package.
func TestNilTracerJobSurface(t *testing.T) {
	var tr *Tracer
	tr.SetCommonArgs("k", "v")
	tr.SetRootParent("run")
	tr.SetProcessName("p")
	tr.Record("r", "c", time.Now(), time.Now())
	if got := tr.SpanCount(); got != 0 {
		t.Fatalf("nil SpanCount = %d", got)
	}
	var sp *Span
	sp.SetArg("k", "v") // must not panic
}
