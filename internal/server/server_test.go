package server

// server_test.go covers the HTTP surface deterministically by driving
// the mux directly: New() builds the handler and the bounded queue but
// only Start() launches the runner, so backpressure and drain states
// can be pinned without racing a live job executor.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wasabi/internal/obs"
)

// do issues one request against the server's handler.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var r *httptest.ResponseRecorder = httptest.NewRecorder()
	var req = httptest.NewRequest(method, path, strings.NewReader(body))
	s.http.Handler.ServeHTTP(r, req)
	return r
}

func TestAnalyzeValidation(t *testing.T) {
	s := New(Config{QueueDepth: 4})
	if rec := do(s, "POST", "/v1/analyze", `{"apps":["NOPE"]}`); rec.Code != 400 {
		t.Fatalf("unknown app: status = %d, want 400", rec.Code)
	}
	if rec := do(s, "POST", "/v1/analyze", `{"apps":`); rec.Code != 400 {
		t.Fatalf("malformed body: status = %d, want 400", rec.Code)
	}
	if rec := do(s, "POST", "/v1/analyze", `{"tenant":"_retired"}`); rec.Code != 400 {
		t.Fatalf("reserved tenant: status = %d, want 400 (underscore names are aggregates)", rec.Code)
	}
	if rec := do(s, "POST", "/v1/analyze", `{"tenant":"_anything"}`); rec.Code != 400 {
		t.Fatalf("underscore tenant: status = %d, want 400", rec.Code)
	}
	if rec := do(s, "POST", "/v1/analyze", `{"apps":["HD","HD"]}`); rec.Code != 400 {
		t.Fatalf("duplicate app: status = %d, want 400 (a repeat would analyze and charge the app twice)", rec.Code)
	}
	rec := do(s, "POST", "/v1/analyze", `{"apps":["HD"]}`)
	if rec.Code != 202 {
		t.Fatalf("valid submit: status = %d, want 202", rec.Code)
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/jobs/job-1" {
		t.Fatalf("Location = %q", loc)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != "job-1" || v.State != "queued" || len(v.Apps) != 1 || v.Apps[0] != "HD" {
		t.Fatalf("accepted view = %+v", v)
	}
}

func TestLookupsReturn404(t *testing.T) {
	s := New(Config{})
	if rec := do(s, "GET", "/v1/jobs/job-99", ""); rec.Code != 404 {
		t.Fatalf("unknown job: status = %d, want 404", rec.Code)
	}
	if rec := do(s, "GET", "/v1/reports/HD", ""); rec.Code != 404 {
		t.Fatalf("no completed report: status = %d, want 404", rec.Code)
	}
}

// TestQueueBackpressure fills one tenant's bounded queue (no workers
// draining it) and expects 429 with Retry-After once it is full — while
// a different tenant still submits freely.
func TestQueueBackpressure(t *testing.T) {
	reg := obs.New()
	s := New(Config{QueueDepth: 2, Obs: reg})
	for i := 0; i < 2; i++ {
		if rec := do(s, "POST", "/v1/analyze", `{"tenant":"alpha"}`); rec.Code != 202 {
			t.Fatalf("submit %d: status = %d, want 202", i, rec.Code)
		}
	}
	rec := do(s, "POST", "/v1/analyze", `{"tenant":"alpha"}`)
	if rec.Code != 429 {
		t.Fatalf("over-capacity submit: status = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Backpressure is per tenant: the same body under another tenant key
	// (or none — the shared default tenant) is still accepted, and the
	// rejected submission must not have burned a job id.
	if rec := do(s, "POST", "/v1/analyze", `{"tenant":"beta"}`); rec.Code != 202 {
		t.Fatalf("other-tenant submit during alpha backpressure: status = %d, want 202", rec.Code)
	} else if loc := rec.Header().Get("Location"); loc != "/v1/jobs/job-3" {
		t.Fatalf("Location after reject = %q, want /v1/jobs/job-3", loc)
	}
	if rec := do(s, "POST", "/v1/analyze", ""); rec.Code != 202 {
		t.Fatalf("default-tenant submit: status = %d, want 202", rec.Code)
	}

	snap := reg.Reg().Snapshot()
	if got := snap.Counter("server_jobs_total", "status", "accepted"); got != 4 {
		t.Fatalf("accepted = %d, want 4", got)
	}
	if got := snap.Counter("server_jobs_total", "status", "rejected"); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if got := snap.Counter("server_sched_rejections_total", "tenant", "alpha"); got != 1 {
		t.Fatalf("alpha rejections = %d, want 1", got)
	}
	// The queue-depth gauges move at enqueue time, not only when a
	// worker dequeues — /metrics must never read stale between jobs.
	var queued float64
	for _, g := range snap.Gauges {
		if g.Name == "server_sched_queue_depth" {
			queued += g.Value
		}
	}
	if queued != 4 {
		t.Fatalf("server_sched_queue_depth sums to %v over tenants, want 4", queued)
	}
	assertGauge(t, snap, "server_sched_queue_depth", []string{"tenant", "alpha"}, 2)
	assertGauge(t, snap, "server_sched_queue_depth", []string{"tenant", "beta"}, 1)
	assertGauge(t, snap, "server_sched_queue_depth", []string{"tenant", DefaultTenant}, 1)
}

// assertGauge fails unless the snapshot holds the named gauge at want.
func assertGauge(t *testing.T, snap obs.Snapshot, name string, labels []string, want float64) {
	t.Helper()
	for _, g := range snap.Gauges {
		if g.Name != name {
			continue
		}
		match := len(labels) == 0 && len(g.Labels) == 0
		if len(labels) == 2 && len(g.Labels) == 1 &&
			g.Labels[0].Key == labels[0] && g.Labels[0].Value == labels[1] {
			match = true
		}
		if match {
			if g.Value != want {
				t.Fatalf("%s%v = %v, want %v", name, labels, g.Value, want)
			}
			return
		}
	}
	t.Fatalf("gauge %s%v not in snapshot", name, labels)
}

// TestTenantValidation pins the tenant-field admission rules.
func TestTenantValidation(t *testing.T) {
	s := New(Config{})
	long := strings.Repeat("x", maxTenantLen+1)
	if rec := do(s, "POST", "/v1/analyze", `{"tenant":"`+long+`"}`); rec.Code != 400 {
		t.Fatalf("oversized tenant: status = %d, want 400", rec.Code)
	}
	rec := do(s, "POST", "/v1/analyze", `{"tenant":"  "}`)
	if rec.Code != 202 {
		t.Fatalf("blank tenant: status = %d, want 202", rec.Code)
	}
	var v jobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Tenant != DefaultTenant {
		t.Fatalf("blank tenant mapped to %q, want %q", v.Tenant, DefaultTenant)
	}
}

func TestDrainingRefusesWork(t *testing.T) {
	s := New(Config{})
	if rec := do(s, "GET", "/healthz", ""); rec.Code != 200 {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	s.sched.drain()
	if rec := do(s, "GET", "/healthz", ""); rec.Code != 503 {
		t.Fatalf("draining healthz = %d, want 503", rec.Code)
	}
	if rec := do(s, "POST", "/v1/analyze", ""); rec.Code != 503 {
		t.Fatalf("draining submit = %d, want 503", rec.Code)
	}
}

func TestMetricsContentType(t *testing.T) {
	reg := obs.New()
	reg.Reg().Counter("example_total").Inc()
	s := New(Config{Obs: reg})
	rec := do(s, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics = %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "example_total 1") {
		t.Fatalf("exposition missing sample:\n%s", rec.Body.String())
	}
}

// TestShutdownDrainsAcceptedJobs starts the real runner, submits a job,
// and verifies Shutdown completes it before returning.
func TestShutdownDrainsAcceptedJobs(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", PipelineWorkers: 2})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	rec := do(s, "POST", "/v1/analyze", `{"apps":["HD"]}`)
	if rec.Code != 202 {
		t.Fatalf("submit = %d, want 202", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs["job-1"]
	if j == nil || j.state != "done" {
		t.Fatalf("accepted job not drained: %+v", j)
	}
	if len(j.view) == 0 {
		t.Fatal("drained job has no report")
	}
}
