package obs

// span_oracle_test.go pins the trace encoding byte for byte. A scoped
// tracer applies its common args and root parent only when the trace
// is encoded, and testdata/trace_oracle.golden.json holds the bytes the
// earlier design, which merged both into a map as each span completed,
// wrote for the same spans under the same clock. Every collision rule
// is exercised: a Start arg against a common arg, SetArg after Start,
// Record args, root-parent adoption and a span named like the root
// parent.

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// oracleTrace records the oracle's spans under a clock that advances
// one millisecond per reading.
func oracleTrace(t *testing.T) []byte {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	tick := 0
	defer func(saved func() time.Time) { now = saved }(now)
	now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Millisecond) }

	tr := NewTracerAt(base)
	tr.SetProcessName("wasabid job-7")
	// A repeated common key keeps its last value.
	tr.SetCommonArgs("job_id", "job-7", "tenant", "first", "trace_id", "0123456789abcdef", "tenant", "acme<&>")
	tr.SetRootParent("run")

	corpus := tr.Start("corpus", "pipeline")                                   // adopts "run"
	app := tr.Start("app:HD", "app", "parent", "corpus", "tenant", "explicit") // Start arg beats common
	review := tr.Start("review:a.go", "review", "app", "HD", "parent", "")     // empty parent adopts "run"
	review.SetArg("cached", "true")
	review.SetArg("fresh_tokens", "0")
	review.SetArg("app", "HD-late") // SetArg after Start wins
	review.SetArg("job_id", "span-job")
	review.SetArg("backend", "sim")
	review.SetArg("retries", "2") // a sixth pair
	review.End()
	odd := tr.Start("odd", "stage", "dangling") // an odd trailing key is dropped
	odd.SetArg("k", "v")
	odd.End()
	bare := tr.Start("bare", "stage")
	bare.End()
	run := tr.Start("run", "sched") // named like the root parent: stays a root
	run.End()
	app.End()
	corpus.End()

	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr.Record("queue-wait", "sched", at(0), at(2), "parent", "job")
	tr.Record("run", "sched", at(2), at(20), "parent", "job")
	tr.Record("job", "job", at(0), at(20), "state", "done", "tenant", "recorded", "fresh_tokens", "0")
	// Records never adopt the root parent, and ties on (start, lane,
	// name) keep the encoder's order.
	tr.Record("tie", "sched", at(5), at(6), "n", "1")
	tr.Record("tie", "sched", at(5), at(7), "n", "2", "odd")
	tr.Record("empty", "sched", at(5), at(5))

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceBytesMatchOracle(t *testing.T) {
	want, err := os.ReadFile("testdata/trace_oracle.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := oracleTrace(t); !bytes.Equal(got, want) {
		t.Fatalf("trace bytes drifted from the oracle:\n got %s\nwant %s", got, want)
	}
}

// BenchmarkSpan prices one review-shaped span on a scoped tracer: Start
// with two args, two SetArg annotations, End.
func BenchmarkSpan(b *testing.B) {
	tr := NewTracer()
	tr.SetCommonArgs("job_id", "job-1", "tenant", "t", "trace_id", "0123456789abcdef")
	tr.SetRootParent("run")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			tr.events = tr.events[:0]
		}
		sp := tr.Start("review:a.go", "review", "app", "HD", "parent", "identify:HD")
		sp.SetArg("cached", "true")
		sp.SetArg("fresh_tokens", "0")
		sp.End()
	}
}
