package server

// trace_test.go proves the per-job observability contract: every job's
// span tree is complete (queue-wait → slot run → pipeline stages →
// per-file reviews), self-contained (byte-isolated from every
// concurrently running job), and correlated (the same job_id / tenant /
// trace_id on every span, every log event and the tenant cost series).
// Run under -race via `make serve-smoke`.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"wasabi/internal/cache"
	"wasabi/internal/obs"
)

// traceEvents decodes a serialized Chrome trace and returns its complete
// ("X") events.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Args map[string]string `json:"args"`
}

func traceEvents(t *testing.T, data []byte) []traceEvent {
	t.Helper()
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var spans []traceEvent
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans = append(spans, ev)
		}
	}
	return spans
}

// jobIdentity fetches a job's id/tenant/trace_id triple from the API.
func jobIdentity(t *testing.T, s *Server, id string) (tenant, traceID string) {
	t.Helper()
	rec := do(s, "GET", "/v1/jobs/"+id, "")
	var v struct {
		Tenant  string `json:"tenant"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v.Tenant, v.TraceID
}

// TestJobTraceIsolationUnderConcurrency runs three tenants' jobs
// concurrently and asserts each produced a complete, self-contained
// span tree carrying its own identity — and that the per-tenant token
// counters sum exactly to the fleet-wide fresh-spend counter.
func TestJobTraceIsolationUnderConcurrency(t *testing.T) {
	observer := obs.New()
	ca, err := cache.New(cache.Options{Metrics: observer.Reg()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Addr:            "127.0.0.1:0",
		QueueDepth:      4,
		SchedulerSlots:  3,
		PipelineWorkers: 2,
		Cache:           ca,
		Obs:             observer,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	const m = 3
	ids := make([]string, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"tenant":"trace-tenant-%d","apps":["HD"]}`, i)
			rec := do(s, "POST", "/v1/analyze", body)
			if rec.Code != 202 {
				t.Errorf("submit %d: status = %d", i, rec.Code)
				return
			}
			var v struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		awaitJob(t, s, id)
	}

	traces := make([][]byte, m)
	tenants := make([]string, m)
	traceIDs := make([]string, m)
	for i, id := range ids {
		tenants[i], traceIDs[i] = jobIdentity(t, s, id)
		if traceIDs[i] == "" {
			t.Fatalf("job %s has no trace_id", id)
		}
		rec := do(s, "GET", "/v1/jobs/"+id+"/trace", "")
		if rec.Code != 200 {
			t.Fatalf("trace %s: status %d", id, rec.Code)
		}
		traces[i] = rec.Body.Bytes()
	}

	for i, id := range ids {
		spans := traceEvents(t, traces[i])
		if len(spans) == 0 {
			t.Fatalf("job %s: empty trace", id)
		}
		seen := map[string]bool{}
		reviews := 0
		for _, ev := range spans {
			seen[ev.Name] = true
			if strings.HasPrefix(ev.Name, "review:") {
				reviews++
			}
			if ev.Args["job_id"] != id || ev.Args["tenant"] != tenants[i] || ev.Args["trace_id"] != traceIDs[i] {
				t.Fatalf("job %s: span %q carries foreign identity %v", id, ev.Name, ev.Args)
			}
			if ev.TS < 0 {
				t.Fatalf("job %s: span %q starts before the trace anchor (ts %d)", id, ev.Name, ev.TS)
			}
		}
		for _, want := range []string{"job", "queue-wait", "run", "corpus", "app:HD"} {
			if !seen[want] {
				t.Fatalf("job %s: trace missing the %q span (have %d spans)", id, want, len(spans))
			}
		}
		if reviews == 0 {
			t.Fatalf("job %s: trace has no per-file review spans", id)
		}
		// The pipeline root must hang off the job's own envelope.
		for _, ev := range spans {
			if ev.Name == "corpus" && ev.Args["parent"] != "run" {
				t.Fatalf("job %s: corpus span parent = %q, want \"run\"", id, ev.Args["parent"])
			}
		}
		// Byte isolation: nothing of any other job leaks into this trace.
		for k := 0; k < m; k++ {
			if k == i {
				continue
			}
			if bytes.Contains(traces[i], []byte(ids[k])) || bytes.Contains(traces[i], []byte(traceIDs[k])) {
				t.Fatalf("trace for %s contains identity of %s", id, ids[k])
			}
		}
	}

	// Fair billing: the per-tenant fresh-token counters partition the
	// fleet counter exactly (both count the same logical event — a fresh
	// review charging the backend).
	snap := observer.Reg().Snapshot()
	var tenantSum int64
	for _, c := range snap.Counters {
		if c.Name == "server_tenant_llm_tokens_total" {
			tenantSum += c.Value
		}
	}
	if fleet := snap.Counter("llm_tokens_in_total"); tenantSum != fleet {
		t.Fatalf("sum(server_tenant_llm_tokens_total) = %d, llm_tokens_in_total = %d — tenant attribution must partition fresh spend exactly", tenantSum, fleet)
	}
	if tenantSum == 0 {
		t.Fatal("no fresh spend recorded; the partition check proved nothing")
	}
}

// TestFinishedJobTracesBoundAndIndex: the job table keeps the newest finished
// jobs up to its bound, serves exactly each finished tracer's WriteJSON
// bytes, reports their exact size in the index, and encodes each trace
// once however often (and however concurrently) it is read.
func TestFinishedJobTracesBoundAndIndex(t *testing.T) {
	observer := obs.New()
	s := New(Config{TraceRing: 2, Obs: observer})
	t0 := time.Unix(1700000000, 0)
	tracers := make([]*obs.Tracer, 4)
	for i := 1; i <= 3; i++ {
		tr := obs.NewTracerAt(t0)
		tr.SetProcessName(fmt.Sprintf("wasabid job-%d", i))
		for k := 0; k < i; k++ {
			tr.Record(fmt.Sprintf("span-%d", k), "test", t0, t0.Add(time.Duration(k+1)*time.Millisecond))
		}
		tracers[i] = tr
		j := &job{id: fmt.Sprintf("job-%d", i), tenant: "a", state: "done"}
		s.mu.Lock()
		s.jobs[j.id] = j
		s.retireLocked(j, &traceEntry{tr: tr, meta: traceMeta{JobID: j.id, Tenant: "a", State: "done", Spans: tr.SpanCount()}})
		s.mu.Unlock()
	}
	if _, known := s.trace("job-1"); known {
		t.Fatal("job-1 should have been evicted (capacity 2)")
	}
	want := map[string][]byte{}
	for i := 2; i <= 3; i++ {
		var buf bytes.Buffer
		if err := tracers[i].WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprintf("job-%d", i)] = buf.Bytes()
	}

	// Readers race the first encode; every read must see one encoding.
	var wg sync.WaitGroup
	got := make([][]byte, 8)
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				s.traceIndex()
			}
			got[g], _ = s.trace("job-3")
		}(g)
	}
	wg.Wait()
	for g, data := range got {
		if !bytes.Equal(data, want["job-3"]) {
			t.Fatalf("reader %d: job-3 trace = %q, want WriteJSON bytes %q", g, data, want["job-3"])
		}
		if &data[0] != &got[0][0] {
			t.Fatalf("reader %d got a second encoding of job-3", g)
		}
	}
	// A finished trace is frozen at its first encoding: a span recorded
	// on the tracer afterwards never reaches the served bytes.
	tracers[3].Record("late", "test", t0, t0.Add(time.Millisecond))
	if data, _ := s.trace("job-3"); &data[0] != &got[0][0] {
		t.Fatal("job-3 was encoded again on a later read")
	}

	idx := s.traceIndex()
	if len(idx) != 2 || idx[0].JobID != "job-3" || idx[1].JobID != "job-2" {
		t.Fatalf("index = %+v, want [job-3 job-2]", idx)
	}
	for _, m := range idx {
		if m.Bytes != len(want[m.JobID]) {
			t.Fatalf("%s: index bytes = %d, want %d", m.JobID, m.Bytes, len(want[m.JobID]))
		}
	}
	if data, _ := s.trace("job-2"); !bytes.Equal(data, want["job-2"]) {
		t.Fatalf("job-2 trace = %q, want %q", data, want["job-2"])
	}
	snap := observer.Reg().Snapshot()
	if got := snap.Counter("server_trace_ring_evictions_total"); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestFinishedJobsAgeOutWithTraces: the job table keeps at most
// TraceRing finished jobs, evicting the oldest first together with its
// trace, so daemon memory stays bounded however many jobs it serves.
func TestFinishedJobsAgeOutWithTraces(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", SchedulerSlots: 1, TraceRing: 2})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)
	for i := 1; i <= 3; i++ {
		submitTenant(t, s, "a", "HD")
		awaitJob(t, s, fmt.Sprintf("job-%d", i))
	}
	if rec := do(s, "GET", "/v1/jobs/job-1", ""); rec.Code != 404 {
		t.Fatalf("oldest finished job: status = %d, want 404 (evicted)", rec.Code)
	}
	if rec := do(s, "GET", "/v1/jobs/job-1/trace", ""); rec.Code != 404 {
		t.Fatalf("oldest finished job trace: status = %d, want 404", rec.Code)
	}
	for _, id := range []string{"job-2", "job-3"} {
		if report, _ := awaitJob(t, s, id); len(report) == 0 {
			t.Fatalf("%s: retained job has no report", id)
		}
		if rec := do(s, "GET", "/v1/jobs/"+id+"/trace", ""); rec.Code != 200 {
			t.Fatalf("%s trace: status = %d, want 200", id, rec.Code)
		}
	}
}

// TestTraceEndpointsBeforeCompletion: a queued job has no trace yet, an
// unknown job has none ever, and the index starts empty.
func TestTraceEndpointsBeforeCompletion(t *testing.T) {
	s := New(Config{QueueDepth: 4}) // never Started: submissions stay queued
	if rec := do(s, "GET", "/v1/jobs/job-9/trace", ""); rec.Code != 404 {
		t.Fatalf("unknown job trace: status = %d, want 404", rec.Code)
	}
	rec := do(s, "POST", "/v1/analyze", `{"apps":["HD"]}`)
	if rec.Code != 202 {
		t.Fatalf("submit: status = %d", rec.Code)
	}
	rec = do(s, "GET", "/v1/jobs/job-1/trace", "")
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "until the job completes") {
		t.Fatalf("queued job trace: status = %d body %q", rec.Code, rec.Body.String())
	}
	rec = do(s, "GET", "/v1/traces", "")
	var idx struct {
		Traces []traceMeta `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Traces) != 0 {
		t.Fatalf("index before any completion = %+v", idx.Traces)
	}
}

// syncBuffer is a goroutine-safe log sink (slog handlers write from
// every worker slot).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredLogCorrelation runs one real job with a JSON slog
// handler attached and asserts the daemon's event stream carries the
// job's correlation identity end to end, closing with the lifecycle and
// eviction events.
func TestStructuredLogCorrelation(t *testing.T) {
	var sink syncBuffer
	observer := obs.New()
	ca, err := cache.New(cache.Options{Metrics: observer.Reg()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Addr:            "127.0.0.1:0",
		QueueDepth:      4,
		PipelineWorkers: 2,
		Cache:           ca,
		Obs:             observer,
		Log:             slog.New(slog.NewJSONHandler(&sink, nil)),
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	rec := do(s, "POST", "/v1/analyze", `{"tenant":"log-tenant","apps":["HD"]}`)
	if rec.Code != 202 {
		t.Fatalf("submit: status = %d", rec.Code)
	}
	var v struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	awaitJob(t, s, v.ID)
	shutdown(t, s)

	events := map[string]map[string]any{}
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not JSON: %q", line)
		}
		msg, _ := ev["msg"].(string)
		events[msg] = ev
	}
	for _, want := range []string{evServerStart, evJobAccepted, evJobStart, evJobFinish, evTenantEvicted, evServerDrain, evServerStop} {
		if _, ok := events[want]; !ok {
			t.Fatalf("log stream missing event %q (have %v)", want, keys(events))
		}
	}
	for _, ev := range []string{evJobAccepted, evJobStart, evJobFinish} {
		e := events[ev]
		if e["job_id"] != v.ID || e["tenant"] != "log-tenant" || e["trace_id"] != v.TraceID {
			t.Fatalf("event %q carries wrong identity: %v (want %s/log-tenant/%s)", ev, e, v.ID, v.TraceID)
		}
	}
	if e := events[evJobFinish]; e["state"] != "done" {
		t.Fatalf("job.finish state = %v", e["state"])
	}
	if e := events[evTenantEvicted]; e["tenant"] != "log-tenant" {
		t.Fatalf("eviction event tenant = %v", e["tenant"])
	}
}

func keys(m map[string]map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTenantEvictionReclaimsState drives the scheduler directly: a
// tenant is evicted the moment its last in-flight job finishes with an
// empty backlog — and not a moment earlier — removing its state gauges
// and counting the eviction. A returning tenant starts fresh.
func TestTenantEvictionReclaimsState(t *testing.T) {
	reg := obs.NewRegistry()
	sc := newScheduler(2, 2, 4, nil, reg, nil)
	enq := func(tenant string) *job {
		j := &job{tenant: tenant}
		if _, err := sc.enqueue(j); err != nil {
			t.Fatal(err)
		}
		return j
	}
	enq("a")
	enq("a")
	enq("b")

	pick := func() *job {
		sc.mu.Lock()
		defer sc.mu.Unlock()
		return sc.pickLocked()
	}
	j1 := pick() // a
	if j1 == nil || j1.tenant != "a" {
		t.Fatalf("first pick = %+v", j1)
	}
	sc.finish(j1) // a still has backlog: no eviction
	if _, ok := sc.tenants["a"]; !ok {
		t.Fatal("tenant a evicted while its backlog was non-empty")
	}
	j2 := pick() // b (cursor moved past a)
	j3 := pick() // a's second job
	if j2 == nil || j2.tenant != "b" || j3 == nil || j3.tenant != "a" {
		t.Fatalf("picks = %+v %+v", j2, j3)
	}
	sc.finish(j2) // b idle → evicted
	if _, ok := sc.tenants["b"]; ok {
		t.Fatal("tenant b not evicted when idle")
	}
	sc.finish(j3) // a idle → evicted
	if len(sc.tenants) != 0 || len(sc.order) != 0 {
		t.Fatalf("scheduler state not reclaimed: tenants=%v order=%v", sc.tenants, sc.order)
	}
	if sc.cursor != 0 {
		t.Fatalf("cursor = %d after all evictions, want 0", sc.cursor)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("server_sched_tenant_evictions_total"); got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	for _, g := range snap.Gauges {
		if g.Name == "server_sched_queue_depth" || g.Name == "server_sched_tenant_inflight" {
			t.Fatalf("stale per-tenant gauge survived: %+v", g)
		}
	}
	// Monotonic history survives eviction — folded into the reserved
	// "_retired" tenant (a's 2 jobs + b's 1), with the per-tenant series
	// themselves removed so sums never go backwards yet labels don't
	// accumulate forever.
	if got := snap.Counter("server_sched_jobs_total", "tenant", "a"); got != 0 {
		t.Fatalf("jobs_total{a} = %d after eviction, want 0 (folded)", got)
	}
	if got := snap.Counter("server_sched_jobs_total", "tenant", RetiredTenant); got != 3 {
		t.Fatalf("jobs_total{_retired} = %d, want 3", got)
	}

	// A returning tenant is re-created from scratch with fresh credit.
	enq("a")
	j := pick()
	if j == nil || j.tenant != "a" {
		t.Fatalf("returning tenant pick = %+v", j)
	}
	sc.finish(j)
	if got := reg.Snapshot().Counter("server_sched_tenant_evictions_total"); got != 3 {
		t.Fatalf("evictions after return = %d, want 3", got)
	}
	if got := reg.Snapshot().Counter("server_sched_jobs_total", "tenant", RetiredTenant); got != 4 {
		t.Fatalf("jobs_total{_retired} after return = %d, want 4", got)
	}
}
