package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// decodeTrace unmarshals a Chrome trace-event JSON document.
func decodeTrace(t *testing.T, b []byte) map[string]any {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("trace lacks a traceEvents array")
	}
	return doc
}

func TestSpansEmitChromeTraceJSON(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("corpus", "pipeline")
	app := tr.Start("app:HD", "app", "app", "HD", "parent", "corpus")
	stage := tr.Start("identify", "stage", "parent", "app:HD")
	stage.End()
	app.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, buf.Bytes())
	events := doc["traceEvents"].([]any)

	var complete, meta int
	var sawParent bool
	for _, raw := range events {
		e := raw.(map[string]any)
		switch e["ph"] {
		case "X":
			complete++
			if e["dur"].(float64) < 1 {
				t.Fatalf("complete event %v has zero duration", e["name"])
			}
			if args, ok := e["args"].(map[string]any); ok {
				if p, ok := args["parent"]; ok && p == "app:HD" {
					sawParent = true
				}
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if complete != 3 {
		t.Fatalf("%d complete events, want 3", complete)
	}
	if meta == 0 {
		t.Fatal("no metadata events (process/thread names)")
	}
	if !sawParent {
		t.Fatal("child span lost its parent attribution")
	}
}

// TestLaneReuse asserts that sequential root spans share lane 1 while
// overlapping root spans get distinct lanes — the worker-slot reading of
// the tid axis.
func TestLaneReuse(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("a", "x")
	b := tr.Start("b", "x") // overlaps a -> new lane
	a.End()
	b.End()
	c := tr.Start("c", "x") // a's lane is free again
	c.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tid := map[string]float64{}
	for _, raw := range decodeTrace(t, buf.Bytes())["traceEvents"].([]any) {
		e := raw.(map[string]any)
		if e["ph"] == "X" {
			tid[e["name"].(string)] = e["tid"].(float64)
		}
	}
	if tid["a"] == tid["b"] {
		t.Fatalf("overlapping spans share lane %v", tid["a"])
	}
	if tid["c"] != tid["a"] {
		t.Fatalf("freed lane not reused: a=%v c=%v", tid["a"], tid["c"])
	}
}

// TestConcurrentSpans hammers the tracer from many goroutines (run under
// -race by make race) and checks the resulting document stays valid.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Start("work", "stress")
				tr.Start("inner", "stress", "parent", "work").End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, buf.Bytes())["traceEvents"].([]any)
	complete := 0
	for _, raw := range events {
		if raw.(map[string]any)["ph"] == "X" {
			complete++
		}
	}
	if complete != 8*50*2 {
		t.Fatalf("%d complete events, want %d", complete, 8*50*2)
	}
}
