package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"
)

// config is one benchmark invocation's settings.
type config struct {
	// wasabid is the daemon binary. The process runs in the work
	// directory, where the benchmark writes its input trees.
	wasabid string
	// root is the checkout the seed corpus sources are copied from.
	root    string
	seed    uint64
	seconds time.Duration
	// setups is how many times set-up runs; setup_s is their median and
	// the last set-up's daemon is the one measured.
	setups int
	// minSamples is the smallest latency sample a run may report
	// percentiles from (minSamples(0.9) = 100 outside tests).
	minSamples int
	// traceDir, when set, turns on the traced run: per-layer metrics,
	// with a Chrome trace per workload written there.
	traceDir string
}

// rssAtJob is the measured job at whose completion the daemon's peak
// RSS is sampled: a fixed amount of work, because wasabid retains every
// finished job's report and its RSS grows with jobs served.
const rssAtJob = 200

// slice is one piece of a measured window.
type slice struct {
	// rate is the mean of the probe rates taken on either side of it.
	rate float64
	// latencies holds one value per job attempted in the slice, ms, +Inf
	// for a job that failed, was refused or returned a wrong report.
	latencies []float64
	seconds   float64
	cpuMS     float64 // daemon user+system CPU
}

// measurement is what one daemon run observed, as measured; endToEnd
// scales the times.
type measurement struct {
	setups []float64 // s
	// setupRates holds, per set-up, the mean of the probe rates taken on
	// either side of it.
	setupRates        []float64
	readies           []float64 // ms, exec → /healthz OK
	slices            []slice
	submits, fetches  []float64 // ms
	polls             int
	attempted, failed int
	done              int
	freshTokens       int64 // over the done jobs
	errs              []string
	rssMB             []float64
	probes            []float64 // every probe rate, rounds/s, in order
	// queueWait and runTime are the daemon's scheduler histogram means
	// over the window (traced runs only).
	queueWait, runTime float64
	clientSpans        []span
}

// collector gathers job results from concurrent clients. Latencies wait
// in pending until their slice ends.
type collector struct {
	mu      sync.Mutex
	m       *measurement
	refs    map[string]string
	warm    bool // workload.warm
	trace   bool
	pid     int // daemon whose RSS is sampled at rssAtJob; 0 = none
	sampled bool
	sampleE error
	pending []float64
}

func (col *collector) add(key string, res jobResult, lane int, start time.Time) {
	col.mu.Lock()
	defer col.mu.Unlock()
	m := col.m
	m.attempted++
	res.check(key, col.refs)
	if res.err == nil && col.warm && res.freshTokens > 0 {
		res.err = fmt.Errorf("%s spent %d fresh LLM tokens on inputs already analyzed", key, res.freshTokens)
	}
	m.polls += res.polls
	if res.err != nil {
		m.failed++
		col.pending = append(col.pending, math.Inf(1))
		if len(m.errs) < 5 {
			m.errs = append(m.errs, res.err.Error())
		}
		return
	}
	m.done++
	m.freshTokens += res.freshTokens
	col.pending = append(col.pending, ms(res.latency))
	m.submits = append(m.submits, ms(res.submit))
	m.fetches = append(m.fetches, ms(res.fetch))
	if col.trace {
		end := start.Add(res.latency)
		root := len(m.clientSpans)
		m.clientSpans = append(m.clientSpans,
			span{name: "client.job", start: start, end: end, parent: -1, job: m.attempted, lane: lane},
			span{name: "server.submit", start: start, end: start.Add(res.submit), parent: root, job: m.attempted, lane: lane},
			span{name: "server.fetch", start: end.Add(-res.fetch), end: end, parent: root, job: m.attempted, lane: lane})
	}
	if col.pid != 0 && m.done == rssAtJob {
		col.sampleRSS()
	}
}

// endSlice returns the latencies of the slice that just ended.
func (col *collector) endSlice() []float64 {
	col.mu.Lock()
	defer col.mu.Unlock()
	out := col.pending
	col.pending = nil
	return out
}

// sampleRSS records the daemon's peak RSS once; called with mu held.
func (col *collector) sampleRSS() {
	if col.sampled {
		return
	}
	col.sampled = true
	rss, err := processPeakRSSmb(col.pid)
	if err != nil {
		col.sampleE = err
		return
	}
	col.m.rssMB = append(col.m.rssMB, rss)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxWindows bounds how far measureSlices extends a window that is short
// of jobs, in multiples of the window.
const maxWindows = 4

// measureSlices runs the measured window as slices of cfg.seconds/slices,
// probing machine speed before the first slice and after each one. run
// drives the workload until its deadline and returns the daemon CPU it
// consumed. A window that ends with fewer than cfg.minSamples jobs, as on
// a machine slowed several-fold, goes on slice by slice until it has
// them, for at most maxWindows windows in all.
func measureSlices(cfg config, m *measurement, col *collector, run func(deadline time.Time) (cpuMS float64, err error)) error {
	before := probeRate()
	m.probes = append(m.probes, before)
	// run has returned, and every client with it, before m.attempted is
	// read.
	for s := 0; s < slices || m.attempted < cfg.minSamples && s < maxWindows*slices; s++ {
		start := time.Now()
		cpu, err := run(start.Add(cfg.seconds / slices))
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		after := probeRate()
		m.probes = append(m.probes, after)
		m.slices = append(m.slices, slice{rate: (before + after) / 2, latencies: col.endSlice(), seconds: elapsed, cpuMS: cpu})
		before = after
	}
	return nil
}

// setUp runs set-up cfg.setups times, probing machine speed before the
// first and after each, and records how long each took. one returns the
// daemon it set up, or kills it and returns an error. Every daemon but
// the last is stopped; the last is returned, still running.
func setUp(cfg config, m *measurement, one func() (*daemon, error)) (*daemon, error) {
	before := probeRate()
	m.probes = append(m.probes, before)
	var d *daemon
	for s := 0; s < cfg.setups; s++ {
		start := time.Now()
		var err error
		if d, err = one(); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		if s < cfg.setups-1 {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		after := probeRate()
		m.probes = append(m.probes, after)
		m.setupRates = append(m.setupRates, (before+after)/2)
		before = after
	}
	return d, nil
}

// schedSums are the daemon's scheduler wait and run histogram sums and
// counts, read from a /metrics exposition.
type schedSums struct{ waitSum, waitN, runSum, runN float64 }

func readSched(text string) schedSums {
	return schedSums{
		waitSum: metricValue(text, "server_sched_job_wait_ms_sum"),
		waitN:   metricValue(text, "server_sched_job_wait_ms_count"),
		runSum:  metricValue(text, "server_sched_job_run_ms_sum"),
		runN:    metricValue(text, "server_sched_job_run_ms_count"),
	}
}

func (a schedSums) add(b schedSums, sign float64) schedSums {
	return schedSums{a.waitSum + sign*b.waitSum, a.waitN + sign*b.waitN, a.runSum + sign*b.runSum, a.runN + sign*b.runN}
}

func (a schedSums) means() (wait, run float64) {
	if a.waitN > 0 {
		wait = a.waitSum / a.waitN
	}
	if a.runN > 0 {
		run = a.runSum / a.runN
	}
	return wait, run
}

// prime runs each client's set-up jobs, concurrently across clients, and
// fails on any job that does not return the reference report.
func prime(d *daemon, w workload, t *tree, refs map[string]string) error {
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for i := 0; i < w.primeJobs(); i++ {
				in, err := w.nextJob(t, c, i)
				if err != nil {
					errs[c] = err
					return
				}
				res := runJob(hc, d.base, in.tenant, in.apps)
				res.check(in.key(t), refs)
				if res.err != nil {
					errs[c] = fmt.Errorf("priming job: %w", res.err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runDaemon sets the workload up cfg.setups times (daemon exec →
// /healthz → priming jobs), then drives the last set-up's daemon with
// the workload's closed-loop clients for cfg.seconds.
func runDaemon(cfg config, w workload, t *tree, refs map[string]string) (*measurement, error) {
	m := &measurement{}
	d, err := setUp(cfg, m, func() (*daemon, error) {
		d, err := startDaemon(cfg.wasabid, t.daemonArgs...)
		if err != nil {
			return nil, err
		}
		m.readies = append(m.readies, ms(d.ready))
		if err := prime(d, w, t, refs); err != nil {
			d.kill()
			return nil, err
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	var sched schedSums
	if cfg.traceDir != "" {
		text, err := d.metrics()
		if err != nil {
			return nil, err
		}
		sched = readSched(text)
	}
	col := &collector{m: m, refs: refs, warm: w.warm, trace: cfg.traceDir != "", pid: d.pid()}
	// Each client keeps its connection and its next job index across
	// slices.
	next := make([]int, w.clients)
	clients := make([]*http.Client, w.clients)
	for c := range next {
		next[c] = w.primeJobs()
		clients[c] = newClient()
		defer clients[c].CloseIdleConnections()
	}
	err = measureSlices(cfg, m, col, func(deadline time.Time) (float64, error) {
		cpu0, err := processCPUms(d.pid())
		if err != nil {
			return 0, err
		}
		errs := make([]error, w.clients)
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for ; time.Now().Before(deadline); next[c]++ {
					in, err := w.nextJob(t, c, next[c])
					if err != nil {
						errs[c] = err
						return
					}
					t0 := time.Now()
					col.add(in.key(t), runJob(clients[c], d.base, in.tenant, in.apps), c+1, t0)
				}
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return 0, err
		}
		cpu1, err := processCPUms(d.pid())
		return cpu1 - cpu0, err
	})
	if err != nil {
		return nil, err
	}
	if !col.sampled {
		// Only a run too short to reach rssAtJob gets here, such as the
		// smoke test's; its RSS is sampled at the end.
		col.sampleRSS()
	}
	if col.sampleE != nil {
		return nil, col.sampleE
	}
	if cfg.traceDir != "" {
		text, err := d.metrics()
		if err != nil {
			return nil, err
		}
		m.queueWait, m.runTime = readSched(text).add(sched, -1).means()
	}
	stopped = true
	if _, err := d.stop(); err != nil {
		return nil, err
	}
	return m, nil
}

// restartCacheDir is the cache directory the restart-warm daemons share.
const restartCacheDir = "restart-cache"

// runRestart sets up by running one cold job into a fresh cache
// directory, cfg.setups times; each measured job then launches a fresh
// daemon over that directory, timed from exec to the report in hand.
// Peak RSS is read once the report is in hand, CPU from the exited
// process's rusage.
func runRestart(cfg config, w workload, t *tree, refs map[string]string) (*measurement, error) {
	m := &measurement{}
	in, err := w.nextJob(t, 0, 0)
	if err != nil {
		return nil, err
	}
	key := in.key(t)
	one := func() (jobResult, *daemon, error) {
		d, err := startDaemon(cfg.wasabid, "-cache-dir", restartCacheDir)
		if err != nil {
			return jobResult{}, nil, err
		}
		hc := newClient()
		defer hc.CloseIdleConnections()
		return runJob(hc, d.base, in.tenant, in.apps), d, nil
	}
	d, err := setUp(cfg, m, func() (*daemon, error) {
		if err := os.RemoveAll(restartCacheDir); err != nil {
			return nil, err
		}
		res, d, err := one()
		if err != nil {
			return nil, err
		}
		m.readies = append(m.readies, ms(d.ready))
		if res.check(key, refs); res.err != nil {
			d.kill()
			return nil, fmt.Errorf("priming job: %w", res.err)
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := d.stop(); err != nil {
		return nil, err
	}

	col := &collector{m: m, refs: refs, warm: w.warm, trace: cfg.traceDir != ""}
	var sched schedSums
	err = measureSlices(cfg, m, col, func(deadline time.Time) (float64, error) {
		cpu := 0.0
		for time.Now().Before(deadline) {
			t0 := time.Now()
			res, d, err := one()
			if err != nil {
				return 0, err
			}
			res.latency = time.Since(t0)
			m.readies = append(m.readies, ms(d.ready))
			rss, err := processPeakRSSmb(d.pid())
			if err != nil {
				d.kill()
				return 0, err
			}
			m.rssMB = append(m.rssMB, rss)
			if cfg.traceDir != "" && res.err == nil {
				text, err := d.metrics()
				if err != nil {
					d.kill()
					return 0, err
				}
				sched = sched.add(readSched(text), 1)
			}
			st, err := d.stop()
			if err != nil {
				return 0, err
			}
			ru := st.SysUsage().(*syscall.Rusage)
			cpu += ms(time.Duration(ru.Utime.Nano() + ru.Stime.Nano()))
			col.add(key, res, 1, t0)
		}
		return cpu, nil
	})
	if err != nil {
		return nil, err
	}
	m.queueWait, m.runTime = sched.means()
	return m, nil
}

// result is one workload run's outcome, in the shape the benchmark
// prints and -repeat records.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	// Raw holds the time metrics as measured, before probe scaling.
	Raw map[string]float64 `json:"raw,omitempty"`
	// Probes are the run's probe rates, rounds/s, in the order taken
	// (probe.go).
	Probes []float64 `json:"probes"`
	errs   []string
	flags  string
	layers []string
	shares map[string]float64
}

// runWorkload builds the workload's inputs and references, runs the
// daemon, and, when tracing, the in-process replay.
func runWorkload(cfg config, w workload) (*result, error) {
	t, err := w.newTree(cfg.root, cfg.seed)
	if err != nil {
		return nil, err
	}
	refs, err := references(w, t, cfg.seed)
	if err != nil {
		return nil, err
	}
	run := runDaemon
	if w.restart {
		run = runRestart
	}
	m, err := run(cfg, w, t, refs)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: cfg.seed,
		Attempted: m.attempted, Failed: m.failed, errs: m.errs, flags: daemonFlags(w, t),
		Metrics: map[string]float64{}, Samples: map[string]int{},
	}
	res.Probes = m.probes
	if cfg.traceDir == "" {
		err = res.endToEnd(cfg, m)
	} else {
		err = res.traced(cfg, w, t, refs, m)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd fills the user-visible metrics from an untraced daemon run:
// Metrics with every time scaled by the probe rate around it (probe.go),
// Raw with the same times as measured.
func (res *result) endToEnd(cfg config, m *measurement) error {
	if m.done == 0 {
		return fmt.Errorf("%s: no job completed in %v", res.Workload, cfg.seconds)
	}
	n := 0
	for _, s := range m.slices {
		n += len(s.latencies)
	}
	if n < cfg.minSamples {
		return fmt.Errorf("%s: %d jobs in %d slices of %v, fewer than the %d job_ms_p90 needs; run longer",
			res.Workload, n, len(m.slices), cfg.seconds/slices, cfg.minSamples)
	}
	samples := map[string]int{"setup_s": len(m.setups), "job_ms_p50": n, "job_ms_p90": n,
		"jobs_per_s": m.done, "daemon_cpu_ms_per_job": m.done}
	scaled := m.times(func(rate float64) float64 { return rate / referenceRate })
	raw := m.times(func(float64) float64 { return 1 })
	res.Raw = map[string]float64{}
	for name, v := range scaled {
		res.Metrics[name], res.Samples[name] = finite(v), samples[name]
		res.Raw[name] = finite(raw[name])
	}
	for name, v := range map[string]float64{
		"daemon_rss_mb_peak":   mean(m.rssMB),
		"fresh_tokens_per_job": float64(m.freshTokens) / float64(m.done),
		"failed_frac":          float64(m.failed) / float64(m.attempted),
	} {
		res.Metrics[name] = v
	}
	res.Samples["daemon_rss_mb_peak"] = len(m.rssMB)
	res.Samples["fresh_tokens_per_job"], res.Samples["failed_frac"] = m.done, m.attempted
	return nil
}

// times returns the run's time metrics, each time multiplied by factor
// of the probe rate around it.
func (m *measurement) times(factor func(rate float64) float64) map[string]float64 {
	var setups, latencies []float64
	for i, s := range m.setups {
		setups = append(setups, s*factor(m.setupRates[i]))
	}
	var seconds, cpuMS float64
	for _, s := range m.slices {
		f := factor(s.rate)
		for _, x := range s.latencies {
			latencies = append(latencies, x*f)
		}
		seconds += s.seconds * f
		cpuMS += s.cpuMS * f
	}
	return map[string]float64{
		"setup_s":               median(setups),
		"job_ms_p50":            percentile(append([]float64(nil), latencies...), 0.5),
		"job_ms_p90":            percentile(latencies, 0.9),
		"jobs_per_s":            float64(m.done) / seconds,
		"daemon_cpu_ms_per_job": cpuMS / float64(m.done),
	}
}

// finite maps a percentile that landed on a failed job (+Inf) to the
// largest float: the job missed every limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
