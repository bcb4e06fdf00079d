package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"wasabi/internal/cache"
	"wasabi/internal/obs"
)

// TestConcurrentWarmJobsShareMemo runs warm seed-corpus jobs two at a
// time through Server.run over one cache, snapshot store and registry,
// as two busy slots do: they read and publish the same memos (run it
// under -race). Every job must report the cold job's bytes, and once
// the memos have settled, jobs share one rendered report body.
func TestConcurrentWarmJobsShareMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the seed corpus")
	}
	o := obs.New()
	ca, err := cache.New(cache.Options{Metrics: o.Reg()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{PipelineWorkers: 2, Cache: ca, Obs: o})
	var mu sync.Mutex
	n := 0
	run := func(tenant string) *job {
		mu.Lock()
		n++
		j := &job{id: fmt.Sprintf("job-%d", n), tenant: tenant, traceID: "0123456789abcdef",
			apps: s.cfg.Corpus, codes: appCodes(s.cfg.Corpus), submitted: time.Now()}
		mu.Unlock()
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.run(j)
		s.mu.Lock()
		defer s.mu.Unlock()
		if j.state != "done" {
			t.Errorf("job %s: state %q, error %q", j.id, j.state, j.err)
		}
		return j
	}
	cold := run("cold")
	const perSlot = 6
	jobs := make([][]*job, 2)
	var wg sync.WaitGroup
	for slot := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSlot; i++ {
				jobs[slot] = append(jobs[slot], run(fmt.Sprintf("tenant-%d", slot)))
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, slot := range jobs {
		for _, j := range slot {
			if !bytes.Equal(j.report, cold.report) {
				t.Fatalf("%s: report differs from the cold job's", j.id)
			}
			if !bytes.Contains(j.view, []byte(`"id": "`+j.id+`"`)) {
				t.Fatalf("%s: view head names another job:\n%s", j.id, j.view)
			}
		}
	}
	a, b := run("after-a"), run("after-b")
	if &a.report[0] != &b.report[0] {
		t.Fatal("two warm jobs after the concurrent ones rendered their report bodies apart")
	}
}
