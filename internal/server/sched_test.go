package server

// sched_test.go pins the multi-tenant scheduler's contracts
// (docs/SCHEDULING.md):
//
//   - weighted round-robin pick order is deterministic given the queue
//     states (unit test over pickLocked);
//   - jobs genuinely overlap in wall-clock time — two timed jobs on two
//     slots finish in less than the sum of their serial runtimes;
//   - a slow tenant with a deep backlog cannot starve a fast tenant;
//   - M concurrent jobs over the same corpus share the daemon's snapshot
//     store: counter-exact parses (one per unique file) under -race, with
//     byte-identical reports, including a warm job afterwards.
//
// The timing tests substitute the job executor (Server.runJob) with
// sleep-timed synthetic jobs: on a one-core CI runner, real pipeline
// jobs are CPU-bound and cannot beat the serial wall-clock sum, but
// scheduler concurrency is about slots, not cores — sleeps prove it
// exactly.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/obs"
	"wasabi/internal/source"
)

// TestWeightedRoundRobinPickOrder drives pickLocked directly: tenant
// "a" at weight 2 and "b" at weight 1 must interleave a,a,b until a's
// backlog empties, then b drains.
func TestWeightedRoundRobinPickOrder(t *testing.T) {
	reg := obs.New().Reg()
	sc := newScheduler(1, 100, 100, map[string]int{"a": 2}, reg, nil)
	for i := 0; i < 6; i++ {
		if _, err := sc.enqueue(&job{tenant: "a", submitted: time.Now()}); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.enqueue(&job{tenant: "b", submitted: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	sc.mu.Lock()
	for {
		j := sc.pickLocked()
		if j == nil {
			break
		}
		got = append(got, j.tenant)
	}
	sc.mu.Unlock()
	want := "a a b a a b a a b b b b"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("pick order = %q, want %q", s, want)
	}
}

// TestTenantQuotaBoundsPicks: with every slot-worth of quota consumed,
// a tenant's queued jobs stay queued until one finishes.
func TestTenantQuotaBoundsPicks(t *testing.T) {
	reg := obs.New().Reg()
	sc := newScheduler(4, 1, 100, nil, reg, nil)
	for i := 0; i < 3; i++ {
		if _, err := sc.enqueue(&job{tenant: "a", submitted: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	sc.mu.Lock()
	first := sc.pickLocked()
	second := sc.pickLocked()
	sc.mu.Unlock()
	if first == nil {
		t.Fatal("first pick = nil, want a job")
	}
	if second != nil {
		t.Fatalf("second pick ran past the quota (inflight 1, quota 1)")
	}
	sc.finish(first)
	sc.mu.Lock()
	third := sc.pickLocked()
	sc.mu.Unlock()
	if third == nil {
		t.Fatal("pick after finish = nil, want the next queued job")
	}
}

// timedJobs installs a synthetic executor: each job sleeps its tenant's
// duration, and completions append to a shared order slice.
type timedJobs struct {
	mu    sync.Mutex
	order []string
	times map[string]time.Duration
	done  chan string
}

func installTimedJobs(s *Server, times map[string]time.Duration) *timedJobs {
	tj := &timedJobs{times: times, done: make(chan string, 64)}
	s.runJob = func(j *job) {
		time.Sleep(tj.times[j.tenant])
		tj.mu.Lock()
		tj.order = append(tj.order, j.tenant)
		tj.mu.Unlock()
		tj.done <- j.tenant
	}
	return tj
}

// submitTenant posts one analyze submission for a tenant and asserts
// acceptance.
func submitTenant(t *testing.T, s *Server, tenant, app string) {
	t.Helper()
	body := fmt.Sprintf(`{"apps":[%q],"tenant":%q}`, app, tenant)
	if rec := do(s, "POST", "/v1/analyze", body); rec.Code != 202 {
		t.Fatalf("submit %s: status = %d, want 202: %s", tenant, rec.Code, rec.Body.String())
	}
}

// TestJobsOverlapWallClock is the wall-clock concurrency proof: two
// jobs over different corpora, each 200ms serial, must complete in well
// under the 400ms serial sum on two slots.
func TestJobsOverlapWallClock(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", SchedulerSlots: 2, Obs: obs.New()})
	tj := installTimedJobs(s, map[string]time.Duration{
		"hdfs-team":  200 * time.Millisecond,
		"hbase-team": 200 * time.Millisecond,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	start := time.Now()
	submitTenant(t, s, "hdfs-team", "HD")
	submitTenant(t, s, "hbase-team", "HB")
	for i := 0; i < 2; i++ {
		select {
		case <-tj.done:
		case <-time.After(5 * time.Second):
			t.Fatal("jobs did not finish")
		}
	}
	elapsed := time.Since(start)
	serialSum := 400 * time.Millisecond
	if elapsed >= serialSum {
		t.Fatalf("elapsed %v >= serial sum %v: jobs did not overlap", elapsed, serialSum)
	}
	t.Logf("elapsed %v for 2×200ms jobs (serial sum %v)", elapsed, serialSum)
}

// TestSlowTenantCannotStarveFast: one slot, a slow tenant with a deep
// backlog submitted first, then one fast job. Round-robin must serve
// the fast tenant after at most the job already running plus one pick —
// not after the slow backlog drains.
func TestSlowTenantCannotStarveFast(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", SchedulerSlots: 1, QueueDepth: 16, Obs: obs.New()})
	tj := installTimedJobs(s, map[string]time.Duration{
		"slow": 60 * time.Millisecond,
		"fast": 5 * time.Millisecond,
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s)

	const slowJobs = 6
	for i := 0; i < slowJobs; i++ {
		submitTenant(t, s, "slow", "HD")
	}
	submitTenant(t, s, "fast", "HB")
	deadline := time.After(10 * time.Second)
	finished := 0
	fastAt := 0
	for fastAt == 0 {
		select {
		case tenant := <-tj.done:
			finished++
			if tenant == "fast" {
				fastAt = finished
			}
		case <-deadline:
			t.Fatal("fast job never finished")
		}
	}
	// The fast job may land behind the slow job already running and, at
	// worst, one more the scheduler picked before the submission landed.
	if fastAt > 3 {
		t.Fatalf("fast job finished %dth of %d: starved behind the slow backlog", fastAt, slowJobs+1)
	}
	t.Logf("fast job finished %dth", fastAt)
}

// shutdown drains a started server within a bounded wait.
func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// corpusSourceFiles counts the corpus's source files — the exact parse
// budget the shared snapshot store must not exceed.
func corpusSourceFiles(t *testing.T) int64 {
	t.Helper()
	var n int64
	for _, app := range corpus.Apps() {
		entries, err := os.ReadDir(app.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() && source.IsSourceFile(e.Name()) {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("corpus has no source files")
	}
	return n
}

// awaitJob polls a job through the mux until done, returning its report
// and fresh token spend.
func awaitJob(t *testing.T, s *Server, id string) (report []byte, freshTokens int64) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(s, "GET", "/v1/jobs/"+id, "")
		if rec.Code != 200 {
			t.Fatalf("job %s: status %d", id, rec.Code)
		}
		var v struct {
			State    string          `json:"state"`
			Error    string          `json:"error"`
			Report   json.RawMessage `json:"report"`
			FreshLLM *struct {
				TokensIn int64 `json:"tokens_in"`
			} `json:"fresh_llm"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case "done":
			return v.Report, v.FreshLLM.TokensIn
		case "failed":
			t.Fatalf("job %s failed: %s", id, v.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil, 0
}

// TestConcurrentJobsShareSnapshotStore is the many-jobs race proof of
// the PR 5 claim: M concurrent full-corpus jobs against one daemon
// parse each unique source file exactly once *between them* (per-entry
// sync.Once in the shared store), produce byte-identical reports, and a
// warm job afterwards is still byte-identical at zero fresh spend.
func TestConcurrentJobsShareSnapshotStore(t *testing.T) {
	want := corpusSourceFiles(t)
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
			body := fmt.Sprintf(`{"tenant":"tenant-%d"}`, i)
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

	reports := make([][]byte, m)
	for i, id := range ids {
		reports[i], _ = awaitJob(t, s, id)
	}
	for i := 1; i < m; i++ {
		if !bytes.Equal(reports[0], reports[i]) {
			t.Fatalf("report %d differs from report 0 (%d vs %d bytes)", i, len(reports[i]), len(reports[0]))
		}
	}

	snap := observer.Reg().Snapshot()
	if got := snap.Counter("source_parse_total"); got != want {
		t.Fatalf("source_parse_total = %d across %d concurrent jobs, want exactly %d (one per unique file)", got, m, want)
	}
	if got := snap.Counter("source_derived_computes_total"); got != want {
		t.Fatalf("sast extractions = %d, want exactly %d", got, want)
	}

	// A warm job after the concurrent burst: byte-identical report, zero
	// fresh spend, and still not one extra parse.
	rec := do(s, "POST", "/v1/analyze", `{"tenant":"late"}`)
	if rec.Code != 202 {
		t.Fatalf("warm submit: status = %d", rec.Code)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	warmReport, warmTokens := awaitJob(t, s, v.ID)
	if warmTokens != 0 {
		t.Fatalf("warm job spent %d fresh tokens, want 0", warmTokens)
	}
	if !bytes.Equal(warmReport, reports[0]) {
		t.Fatal("warm report differs from the concurrent cold reports")
	}
	if got := observer.Reg().Snapshot().Counter("source_parse_total"); got != want {
		t.Fatalf("source_parse_total after warm job = %d, want still %d", got, want)
	}
}
