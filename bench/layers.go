package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// traced fills the per-layer metrics from the traced daemon run and the
// in-process replay, and writes the workload's Chrome trace. Self-times
// are per traced replay job, counts per replay job.
func (res *result) traced(cfg config, w workload, t *tree, refs map[string]string, m *measurement) error {
	if m.done == 0 {
		return fmt.Errorf("%s: no job completed in %v", res.Workload, cfg.seconds)
	}
	set := func(name string, v float64, n int) { res.Metrics[name], res.Samples[name] = v, n }
	set("server.submit_ms", mean(m.submits), m.done)
	set("server.fetch_ms", mean(m.fetches), m.done)
	set("server.polls_per_job", float64(m.polls)/float64(m.attempted), m.attempted)
	set("server.queue_wait_ms", m.queueWait, m.done)
	set("server.run_ms", m.runTime, m.done)
	set("process.ready_ms", median(append([]float64(nil), m.readies...)), len(m.readies))

	rp, err := replay(w, t, refs)
	if err != nil {
		return err
	}
	for _, mm := range rp.mismatches {
		res.Failed++
		res.errs = append(res.errs, mm)
	}
	self := selfTimes(rp.spans)
	byName := map[string]time.Duration{}
	var rootSelf time.Duration
	for i, s := range rp.spans {
		byName[s.name] += self[i]
		if s.parent < 0 {
			rootSelf += self[i]
		}
	}
	perTraced := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += byName[n]
		}
		return ms(d) / float64(rp.tracedJobs)
	}
	jobs := float64(rp.jobs)
	n := rp.counts
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	traced := ms(rp.tracedRun) / float64(rp.tracedJobs)
	untraced := ms(rp.untracedRun) / float64(rp.jobs-rp.tracedJobs)
	for name, v := range map[string]float64{
		"core.identify_self_ms":     perTraced("core.identify"),
		"core.dynamic_self_ms":      perTraced("core.dynamic"),
		"core.static_ms":            perTraced("core.static"),
		"core.if_ms":                perTraced("core.if"),
		"source.load_ms":            perTraced("source.load"),
		"source.files":              float64(n.files) / jobs,
		"source.bytes":              float64(n.bytes) / jobs,
		"source.parses":             float64(rp.parses) / jobs,
		"sast.analyze_ms":           perTraced("sast.analyze"),
		"sast.extracts":             float64(n.extracts) / jobs,
		"sast.hydrations":           float64(n.hydrations) / jobs,
		"cache.get_ms":              perTraced("cache.get_analysis", "cache.get_review", "cache.get_facts"),
		"cache.put_ms":              perTraced("cache.put_analysis", "cache.put_review", "cache.put_facts"),
		"cache.hit_ratio":           ratio(n.cacheHits, n.cacheHits+n.cacheMisses),
		"cache.disk_loads":          float64(rp.diskLoads) / jobs,
		"llm.review_ms":             perTraced("llm.review"),
		"llm.reviews":               float64(n.reviews) / jobs,
		"llm.fresh_tokens":          float64(n.freshTokens) / jobs,
		"planner.collect_ms":        perTraced("planner.collect"),
		"planner.plan_ms":           perTraced("planner.plan"),
		"planner.entries":           float64(n.planEntries) / jobs,
		"testkit.run_ms":            perTraced("testkit.run"),
		"testkit.runs":              float64(n.runs) / jobs,
		"testkit.failed_runs":       float64(n.failedRuns) / jobs,
		"fault.throws":              float64(n.throws) / jobs,
		"oracle.evaluate_ms":        perTraced("oracle.evaluate"),
		"oracle.reports":            float64(n.rawReports) / jobs,
		"oracle.distinct_ratio":     ratio(n.distinctReports, n.rawReports),
		"report.build_ms":           perTraced("report.build"),
		"report.marshal_ms":         perTraced("report.marshal"),
		"report.bytes":              float64(n.reportBytes) / jobs,
		"replay.job_ms":             traced,
		"replay.untraced_job_ms":    untraced,
		"replay.trace_overhead_pct": 100 * (traced/untraced - 1),
		"replay.self_time_share":    1 - float64(rootSelf)/float64(rp.tracedWall),
	} {
		set(name, v, rp.tracedJobs)
	}
	// Everything a job does outside a layer span is benchmark glue; if it
	// grows past 5% the spans no longer account for the job.
	if share := res.Metrics["replay.self_time_share"]; share < 0.95 {
		return fmt.Errorf("%s: layer self-times cover %.1f%% of the replay's job wall time, want at least 95%%", w.name, 100*share)
	}
	layers, by := layerShares(rp.spans)
	res.shares = map[string]float64{}
	for _, l := range layers {
		res.shares[l] = float64(by[l]) / float64(rp.tracedWall)
	}
	res.layers = layers
	all := append(append([]span(nil), m.clientSpans...), rp.spans...)
	return writeChromeFile(filepath.Join(cfg.traceDir, w.name+".trace.json"), all, "bench "+w.name)
}
