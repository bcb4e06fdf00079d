// span.go implements the tracing half of the observability layer:
// parent/child spans over pipeline stages (§3.1's identify → plan →
// inject → oracle sequence), serialized as Chrome trace-event JSON so a
// run renders directly in Perfetto / about://tracing.
//
// A Tracer can be scoped to one unit of work: the batch CLI keeps one
// tracer for the whole run, while the wasabid daemon mints one per job
// (docs/OBSERVABILITY.md "Daemon tracing") with SetCommonArgs carrying
// the job's correlation identity (job_id, tenant, trace_id) onto every
// span, so each job's trace is self-contained and byte-isolated from
// every concurrently running job.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer collects the spans of one pipeline run. Spans are assigned
// display lanes — the Chrome trace "tid" — on start: a span takes the
// lowest free lane and frees it on End, so the lane axis reads as
// worker-slot occupancy (lane count ≈ peak concurrency). A nil *Tracer
// is valid and records nothing.
type Tracer struct {
	mu    sync.Mutex
	start time.Time
	// events are the completed spans in completion order; each points
	// into its span's record.
	events []*spanEvent
	// chunk is the block the next span records are drawn from, so a
	// job's spans cost one allocation between them, not one each.
	chunk []Span
	// slab is the block span args are drawn from: each span's args are
	// one run of it, and tail is the span whose run ends it, which alone
	// grows its run in place.
	slab []string
	tail *Span
	// reserved counts the spans Reserve announced that have no record
	// yet, and expect those not yet completed: they size the next chunk
	// and, on the first completion, events.
	reserved, expect int
	lanes            []bool // lane i occupied?
	// laneBuf holds lanes while they fit, as they do for a job.
	laneBuf [8]bool
	// common is merged into every span's args when the trace is encoded
	// (explicit args win) — the per-job correlation identity.
	common map[string]string
	// rootParent, when set, is written as the parent of every root span
	// opened via Start that carries no explicit parent arg, so a scoped
	// trace stays one connected tree (the daemon sets it to its "run"
	// span; spans recorded via Record keep their explicit parentage).
	// Like common, it is applied when the trace is encoded.
	rootParent string
	// procName overrides the process_name metadata event.
	procName string
}

// minChunk is how many span records a chunk holds at least, and
// argsPerSpan how many args a slab holds per span announced.
const (
	minChunk    = 16
	argsPerSpan = 8
)

// Span is one in-flight operation. End completes it; a span opened with
// a "parent" arg records its parent's name, so the hierarchy survives
// into the trace file. A nil *Span is valid.
type Span struct {
	tr *Tracer
	// at is when the span started, after the tracer's start.
	at time.Duration
	// ev is the span's record; its args are the key/value pairs given to
	// Start and SetArg, in order (a later pair wins a repeated key), in a
	// run of the tracer's slab.
	ev spanEvent
}

// spanEvent is one completed span as recorded: its args are the pairs
// it was given, and the tracer's common args and root parent join them
// only when the trace is encoded (WriteJSON), so recording a span
// builds no map.
type spanEvent struct {
	name, cat string
	ts, dur   int64
	args      []string
	// tid is the span's display lane plus one (tid 0 is reserved for
	// metadata).
	tid int32
	// started marks a span opened via Start, which alone may adopt the
	// root parent.
	started bool
}

// chromeEvent is one Chrome trace-event record ("X" = complete event,
// "M" = metadata). Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the JSON object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// now is the tracer's clock; tests pin it to make traces reproducible.
var now = time.Now

// NewTracer returns an empty tracer anchored at the current time.
func NewTracer() *Tracer { return NewTracerAt(now()) }

// NewTracerAt returns an empty tracer anchored at the given time — the
// daemon anchors a job's tracer at submission so the queue-wait span
// starts at timestamp zero.
func NewTracerAt(start time.Time) *Tracer {
	t := &Tracer{start: start}
	t.lanes = t.laneBuf[:0]
	return t
}

// SetCommonArgs installs alternating key/value args merged into every
// span of the trace (explicit span args win on collision) when it is
// encoded. The daemon stamps job_id/tenant/trace_id here so every span
// of a job's trace carries its correlation identity. No-op on nil.
func (t *Tracer) SetCommonArgs(args ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.common = argMap(args)
}

// SetRootParent names the span adopted as parent by every parentless
// root span opened via Start — the seam that hangs the pipeline's
// "corpus" root under the daemon's per-job "run" span without the
// pipeline knowing it is being served. No-op on nil.
func (t *Tracer) SetRootParent(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rootParent = name
}

// SetProcessName overrides the process_name metadata Perfetto displays
// (default "wasabi pipeline"). No-op on nil.
func (t *Tracer) SetProcessName(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.procName = name
}

// SpanCount reports how many completed spans the tracer holds. 0 on nil.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reserve announces n more spans (Start or Record), so that their
// records come from one chunk and the completed-span list is sized
// once. It is a hint: more spans than announced still record, at the
// cost of another chunk. No-op on nil.
func (t *Tracer) Reserve(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expect += n
	t.reserved += n
	if cap(t.events) > 0 && cap(t.events) < len(t.events)+t.expect {
		t.events = append(make([]*spanEvent, 0, len(t.events)+t.expect), t.events...)
	}
}

// Start opens a span with the given name, category and alternating
// key/value args (a "parent" arg names the enclosing span), allocating
// the lowest free display lane. Nil tracer returns a nil span.
func (t *Tracer) Start(name, cat string, args ...string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := t.spanLocked()
	// An odd trailing key has no value and is dropped, as in Record.
	s.ev = spanEvent{name: name, cat: cat, tid: int32(t.allocLaneLocked() + 1), started: true, args: t.runLocked(s, args[:len(args)&^1], 0)}
	t.mu.Unlock()
	s.at = now().Sub(t.start)
	return s
}

// spanLocked draws the next span record from the tracer's chunk,
// starting a chunk sized for the spans still announced when the last
// one is full; t.mu must be held.
func (t *Tracer) spanLocked() *Span {
	if len(t.chunk) == cap(t.chunk) {
		t.chunk = make([]Span, 0, max(t.reserved, minChunk))
	}
	t.reserved = max(t.reserved-1, 0)
	t.chunk = t.chunk[:len(t.chunk)+1]
	s := &t.chunk[len(t.chunk)-1]
	s.tr = t
	return s
}

// runLocked returns a new run of the slab for s: args, then room for
// extra more. The run ends the slab, which starts anew, sized for the
// spans still announced, when it has no room. t.mu must be held.
func (t *Tracer) runLocked(s *Span, args []string, extra int) []string {
	n := len(args) + extra
	if cap(t.slab)-len(t.slab) < n {
		t.slab = make([]string, 0, max(n, argsPerSpan*max(t.reserved, minChunk)))
	}
	i := len(t.slab)
	t.slab = append(t.slab, args...)[:i+n]
	t.tail = s
	return t.slab[i : i+n : i+n]
}

// recordLocked appends a completed span record; t.mu must be held. The
// first completion sizes the list for every span announced.
func (t *Tracer) recordLocked(ev *spanEvent) {
	if t.events == nil && t.expect > 0 {
		t.events = make([]*spanEvent, 0, t.expect)
	}
	t.expect = max(t.expect-1, 0)
	t.events = append(t.events, ev)
}

// allocLaneLocked takes the lowest free lane; t.mu must be held.
func (t *Tracer) allocLaneLocked() int {
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes) - 1
}

// SetArg annotates the span with one key/value arg before End — review
// spans use it to record outcome facts (fresh token spend, cache hit,
// retries, degradation) known only once the work finished. The span's
// run grows in place while it ends the slab, and moves to its end
// otherwise. No-op on nil.
func (s *Span) SetArg(key, value string) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	if n := len(s.ev.args); t.tail == s && cap(t.slab)-len(t.slab) >= 2 {
		t.slab = append(t.slab, key, value)
		s.ev.args = t.slab[len(t.slab)-n-2 : len(t.slab) : len(t.slab)]
	} else {
		run := t.runLocked(s, s.ev.args, 2)
		run[len(run)-2], run[len(run)-1] = key, value
		s.ev.args = run
	}
	t.mu.Unlock()
}

// End completes the span, appending it to the tracer and freeing its
// lane. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	end := now().Sub(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ev.ts = s.at.Microseconds()
	s.ev.dur = max((end - s.at).Microseconds(), 1)
	t.recordLocked(&s.ev)
	t.lanes[s.ev.tid-1] = false
}

// Record appends an already-completed span measured externally — the
// daemon records the queue-wait (submission → slot start) and the
// slot-run envelope this way, since neither is "in flight" code the
// Start/End pattern could bracket. The span takes the lowest lane free
// at record time. No-op on nil.
func (t *Tracer) Record(name, cat string, start, end time.Time, args ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := t.allocLaneLocked()
	t.lanes[lane] = false // retrospective: occupies no wall-clock
	s := t.spanLocked()
	s.ev = spanEvent{
		name: name,
		cat:  cat,
		ts:   start.Sub(t.start).Microseconds(),
		dur:  max(end.Sub(start).Microseconds(), 1),
		tid:  int32(lane + 1),
		// An odd trailing key has no value and is dropped.
		args: t.runLocked(s, args[:len(args)&^1], 0),
	}
	t.recordLocked(&s.ev)
}

// argsLocked renders ev's encoded args: its own pairs (a later pair wins
// a repeated key), the root parent for a parentless Start span not
// itself named like it, then every common arg the span does not set.
// t.mu must be held.
func (t *Tracer) argsLocked(ev spanEvent) map[string]string {
	m := argMap(ev.args)
	if ev.started && t.rootParent != "" && m["parent"] == "" && ev.name != t.rootParent {
		if m == nil {
			m = make(map[string]string, 1+len(t.common))
		}
		m["parent"] = t.rootParent
	}
	if len(t.common) == 0 {
		return m
	}
	if m == nil {
		m = make(map[string]string, len(t.common))
	}
	for k, v := range t.common {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	return m
}

// SinceMS returns the span's age in milliseconds — the value stage
// latency histograms observe at End time. 0 on nil.
func (s *Span) SinceMS() float64 {
	if s == nil {
		return 0
	}
	return float64(now().Sub(s.tr.start)-s.at) / float64(time.Millisecond)
}

// WriteJSON serializes the recorded spans in Chrome trace-event JSON
// (object form, microsecond timestamps), preceded by process/thread
// metadata so Perfetto labels the lanes. Safe on a nil tracer, which
// writes an empty-but-valid trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	proc := "wasabi pipeline"
	trace := chromeTrace{DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		recorded := make([]spanEvent, len(t.events))
		for i, ev := range t.events {
			recorded[i] = *ev
		}
		// Stable output for a given set of spans: order by start, then
		// lane, then name (End order depends on scheduling).
		sort.Slice(recorded, func(i, j int) bool {
			a, b := recorded[i], recorded[j]
			if a.ts != b.ts {
				return a.ts < b.ts
			}
			if a.tid != b.tid {
				return a.tid < b.tid
			}
			return a.name < b.name
		})
		events := make([]chromeEvent, len(recorded))
		for i, ev := range recorded {
			events[i] = chromeEvent{Name: ev.name, Cat: ev.cat, Ph: "X", TS: ev.ts, Dur: ev.dur, PID: 1, TID: int(ev.tid), Args: t.argsLocked(ev)}
		}
		lanes := len(t.lanes)
		if t.procName != "" {
			proc = t.procName
		}
		t.mu.Unlock()
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: 1, Args: map[string]string{"name": proc},
		})
		for i := 0; i < lanes; i++ {
			trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
				Args: map[string]string{"name": "lane-" + strconv.Itoa(i)},
			})
		}
		trace.TraceEvents = append(trace.TraceEvents, events...)
	} else {
		trace.TraceEvents = []chromeEvent{
			{Name: "process_name", Ph: "M", PID: 1, Args: map[string]string{"name": proc}},
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(trace)
}

// argMap folds alternating key/value strings into a map (nil when empty).
func argMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}
