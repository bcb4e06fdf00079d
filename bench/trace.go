package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans are recorded only by the
// benchmark's own code, around the calls it makes.
type span struct {
	name       string
	start, end time.Time
	parent     int // index into tracer.spans; -1 for a job's root
	job        int
	lane       int // Chrome trace thread: 0 = replay, c+1 = client c
}

// layer is the module a span's name belongs to ("cache" for
// "cache.get_review"); a job's root span belongs to "job".
func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return s.name
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer records nested spans from a single goroutine. A nil *tracer
// records nothing, so the untraced replay runs the same code with spans
// off.
type tracer struct {
	spans []span
	stack []int
	job   int
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent, job: t.job})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the part of it its
// children cover. Children never overlap: the replay is sequential.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// writeChrome writes spans as Chrome trace-event JSON (load it in
// Perfetto or about://tracing). Timestamps are µs from the first span.
func writeChrome(w io.Writer, spans []span, process string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var origin time.Time
	for _, s := range spans {
		if origin.IsZero() || s.start.Before(origin) {
			origin = s.start
		}
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]string{"name": process}}}
	for _, s := range spans {
		args := map[string]string{"job": fmt.Sprint(s.job)}
		if s.parent >= 0 {
			args["parent"] = spans[s.parent].name
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func writeChromeFile(path string, spans []span, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans, process); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerShares sums self-time per layer over the given spans and returns
// the layers sorted by descending self-time.
func layerShares(spans []span) ([]string, map[string]time.Duration) {
	self := selfTimes(spans)
	by := map[string]time.Duration{}
	for i, s := range spans {
		by[s.layer()] += self[i]
	}
	layers := make([]string, 0, len(by))
	for l := range by {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool {
		if by[layers[i]] != by[layers[j]] {
			return by[layers[i]] > by[layers[j]]
		}
		return layers[i] < layers[j]
	})
	return layers, by
}
