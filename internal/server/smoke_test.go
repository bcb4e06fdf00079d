package server_test

// smoke_test.go is the end-to-end service exercise `make serve-smoke`
// runs: a real wasabid server on a loopback port, driven over plain
// net/http through the full analyze → poll → report → metrics flow.
// One cold job pays the LLM spend; then three tenants submit
// concurrently and every warm job must be served entirely from the
// cache with zero fresh spend and a byte-identical report, with
// /metrics proving more than one scheduler slot was busy at once (a
// gate holds the first warm job until a second has started).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wasabi/internal/cache"
	"wasabi/internal/obs"
	"wasabi/internal/server"
)

// getJSON decodes a GET response into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// submit posts an analyze request for the full corpus under a tenant
// key and returns the job id.
func submit(t *testing.T, base, tenant string) string {
	t.Helper()
	body := `{"tenant":"` + tenant + `"}`
	resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("analyze (%s): status %d", tenant, resp.StatusCode)
	}
	var v struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Tenant != tenant {
		t.Fatalf("job tenant = %q, want %q", v.Tenant, tenant)
	}
	return v.ID
}

// await polls a job until it leaves the queue/runner.
func await(t *testing.T, base, id string) (state string, report json.RawMessage, fresh struct {
	Calls    int   `json:"calls"`
	TokensIn int64 `json:"tokens_in"`
}) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		var v struct {
			State    string          `json:"state"`
			Error    string          `json:"error"`
			Report   json.RawMessage `json:"report"`
			FreshLLM *struct {
				Calls    int   `json:"calls"`
				TokensIn int64 `json:"tokens_in"`
			} `json:"fresh_llm"`
		}
		getJSON(t, base+"/v1/jobs/"+id, &v)
		switch v.State {
		case "done":
			if v.FreshLLM == nil {
				t.Fatal("done job missing fresh_llm")
			}
			return v.State, v.Report, *v.FreshLLM
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return
}

func TestServeSmoke(t *testing.T) {
	observer := obs.New()
	ca, err := cache.New(cache.Options{Dir: t.TempDir(), Metrics: observer.Reg()})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Addr:            "127.0.0.1:0",
		QueueDepth:      4,
		SchedulerSlots:  3,
		PipelineWorkers: 2,
		Cache:           ca,
		Obs:             observer,
	})
	// The warm jobs overlap by construction: the first one to reach a
	// slot (the second job overall, after the cold one) holds it until
	// another warm job has started, so two slots are busy at once
	// however loaded the machine is.
	var starts atomic.Int32
	secondWarm := make(chan struct{})
	srv.WrapRunJob(func(run func()) {
		switch starts.Add(1) {
		case 2:
			select {
			case <-secondWarm:
			case <-time.After(60 * time.Second):
				t.Error("no second warm job started while the first held its slot")
			}
		case 3:
			close(secondWarm)
		}
		run()
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Cold job (default shared tenant): real LLM traffic.
	id1 := submit(t, base, server.DefaultTenant)
	_, report1, fresh1 := await(t, base, id1)
	if fresh1.TokensIn == 0 || fresh1.Calls == 0 {
		t.Fatalf("cold job spent nothing: %+v", fresh1)
	}
	if len(report1) == 0 {
		t.Fatal("cold job returned no report")
	}

	// Concurrent warm jobs from three tenants: each byte-identical to
	// the cold report at zero fresh spend, scheduled onto overlapping
	// slots.
	tenants := []string{"team-a", "team-b", "team-c"}
	ids := make([]string, len(tenants))
	var wg sync.WaitGroup
	for i, tenant := range tenants {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			ids[i] = submit(t, base, tenant)
		}(i, tenant)
	}
	wg.Wait()
	for i, id := range ids {
		_, report, fresh := await(t, base, id)
		if fresh.TokensIn != 0 || fresh.Calls != 0 {
			t.Fatalf("warm job %s (%s) spent fresh LLM traffic: %+v", id, tenants[i], fresh)
		}
		if !bytes.Equal(report1, report) {
			t.Fatalf("warm report %s differs from cold: %d vs %d bytes", id, len(report), len(report1))
		}
	}

	// Every completed job's span tree is retained and served as Chrome
	// trace-event JSON; the cold job's must cover the whole lifecycle —
	// queue-wait and slot run, the pipeline root, and per-file reviews —
	// with the job's correlation identity on each span.
	var traceDoc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	getJSON(t, base+"/v1/jobs/"+id1+"/trace", &traceDoc)
	seen := map[string]bool{}
	reviews := 0
	for _, ev := range traceDoc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		seen[ev.Name] = true
		if strings.HasPrefix(ev.Name, "review:") {
			reviews++
		}
		if got := ev.Args["job_id"]; got != id1 {
			t.Fatalf("span %q carries job_id %q, want %q", ev.Name, got, id1)
		}
		if got := ev.Args["tenant"]; got != server.DefaultTenant {
			t.Fatalf("span %q carries tenant %q, want %q", ev.Name, got, server.DefaultTenant)
		}
	}
	for _, want := range []string{"job", "queue-wait", "run", "corpus"} {
		if !seen[want] {
			t.Fatalf("trace for %s is missing the %q span (have %v)", id1, want, seen)
		}
	}
	if reviews == 0 {
		t.Fatalf("trace for %s has no per-file review spans", id1)
	}

	// The trace index lists all four jobs, newest first — the cold job,
	// which completed first, comes last.
	var idx struct {
		Traces []struct {
			JobID   string `json:"job_id"`
			TraceID string `json:"trace_id"`
			State   string `json:"state"`
			Spans   int    `json:"spans"`
		} `json:"traces"`
	}
	getJSON(t, base+"/v1/traces", &idx)
	if len(idx.Traces) != 4 {
		t.Fatalf("trace index has %d entries, want 4", len(idx.Traces))
	}
	if last := idx.Traces[len(idx.Traces)-1]; last.JobID != id1 || last.State != "done" || last.Spans == 0 || last.TraceID == "" {
		t.Fatalf("oldest trace index entry = %+v, want completed %s", last, id1)
	}

	// Per-app report endpoint serves the completed section.
	var appDoc struct {
		Schema string `json:"schema"`
		App    struct {
			Code string `json:"code"`
		} `json:"app"`
	}
	getJSON(t, base+"/v1/reports/HD", &appDoc)
	if appDoc.App.Code != "HD" {
		t.Fatalf("report app = %+v", appDoc)
	}

	// Metrics exposition reflects the jobs, the cache and the per-tenant
	// scheduler series. The busy-slot high-water mark proves the warm
	// jobs overlapped. All four one-shot tenants went idle the moment
	// their job finished, so by now eviction has folded their counters
	// into the reserved "_retired" tenant: all 4 accepted jobs, and the
	// cold job's token spend.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`server_jobs_total{status="done"} 4`,
		`server_sched_jobs_total{tenant="_retired"} 4`,
		`server_sched_slots 3`,
		`cache_hits_total{stage="review"}`,
		"# TYPE server_sched_job_wait_ms histogram",
		"# TYPE server_sched_job_run_ms histogram",
		"# TYPE server_sched_tenant_evictions_total counter",
		`server_tenant_llm_tokens_total{tenant="_retired"}`,
		`wasabi_build_info{build="` + cache.BuildID() + `",go_version="` + runtime.Version() + `",version="` + server.Version + `"} 1`,
		"# TYPE server_start_time_seconds gauge",
		"server_trace_ring_entries 4",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	// Evicted tenants leave no per-tenant series behind — that is the
	// point of the fold.
	if strings.Contains(text, `tenant="team-a"`) {
		t.Fatalf("metrics still expose tenant team-a after eviction:\n%s", text)
	}
	busyMax := float64(0)
	for _, g := range observer.Reg().Snapshot().Gauges {
		if g.Name == "server_sched_slots_busy_max" {
			busyMax = g.Value
		}
	}
	if busyMax < 2 {
		t.Fatalf("server_sched_slots_busy_max = %v, want >= 2 (concurrent tenants must overlap)", busyMax)
	}

	// Graceful drain: refuses new work, then stops serving.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still serving after drain")
	}

	// With every worker exited, all four one-shot tenants went idle and
	// were reclaimed: the eviction counter covers each, and no stale
	// per-tenant state gauges survive.
	snap := observer.Reg().Snapshot()
	if got := snap.Counter("server_sched_tenant_evictions_total"); got != 4 {
		t.Fatalf("server_sched_tenant_evictions_total = %d, want 4", got)
	}
	for _, g := range snap.Gauges {
		if g.Name == "server_sched_queue_depth" || g.Name == "server_sched_tenant_inflight" {
			t.Fatalf("stale per-tenant gauge survived eviction: %+v", g)
		}
	}
}
