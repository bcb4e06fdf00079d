package server

import (
	"strconv"
	"testing"
	"time"

	"wasabi/internal/cache"
	"wasabi/internal/obs"
)

// warmJobs returns a function that runs one seed-corpus job through
// Server.run over a daemon-lifetime cache, snapshot store and registry,
// after running a first job that warms them all.
func warmJobs(tb testing.TB, cfg Config) func() {
	tb.Helper()
	o := obs.New()
	ca, err := cache.New(cache.Options{Metrics: o.Reg()})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Cache, cfg.Obs = ca, o
	s := New(cfg)
	n := 0
	job := func() {
		n++
		j := &job{id: "job-" + strconv.Itoa(n), tenant: "bench", traceID: "0123456789abcdef",
			apps: s.cfg.Corpus, codes: appCodes(s.cfg.Corpus), submitted: time.Now()}
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.run(j)
		if j.state != "done" {
			tb.Fatalf("job %s: state %q, error %q", j.id, j.state, j.err)
		}
	}
	job()
	return job
}

// BenchmarkWarmJob prices one warm seed-corpus job through the daemon's
// job path (Server.run: core RunCorpus, report.Build, the done view,
// the job's envelope spans and retirement) over a daemon-lifetime
// cache, snapshot store and registry that a first job warmed. Every
// stage is a cache hit, so what is left is the per-job bookkeeping:
// B/op and allocs/op are the garbage one warm job leaves
// (docs/PERFORMANCE.md, "Warm job garbage"). HTTP submission and
// polling are not in this number.
func BenchmarkWarmJob(b *testing.B) {
	job := warmJobs(b, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}
