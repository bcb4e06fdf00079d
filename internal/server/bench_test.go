package server

import (
	"strconv"
	"testing"
	"time"

	"wasabi/internal/cache"
	"wasabi/internal/obs"
)

// BenchmarkWarmJob prices one warm seed-corpus job through the daemon's
// job path (Server.run: core RunCorpus, report.Build, renderDoneView,
// the job's envelope spans and retirement) over a daemon-lifetime
// cache, snapshot store and registry that a first job warmed. Every
// stage is a cache hit, so what is left is the per-job bookkeeping:
// B/op and allocs/op are the garbage one warm job leaves
// (docs/PERFORMANCE.md, "Warm job garbage"). HTTP submission and
// polling are not in this number.
func BenchmarkWarmJob(b *testing.B) {
	o := obs.New()
	ca, err := cache.New(cache.Options{Metrics: o.Reg()})
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{Cache: ca, Obs: o})
	n := 0
	job := func() {
		n++
		j := &job{id: "job-" + strconv.Itoa(n), tenant: "bench", traceID: "0123456789abcdef",
			apps: s.cfg.Corpus, submitted: time.Now()}
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.run(j)
		if j.state != "done" {
			b.Fatalf("job %s: state %q, error %q", j.id, j.state, j.err)
		}
	}
	job()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}
