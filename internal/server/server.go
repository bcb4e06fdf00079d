// Package server is WASABI-as-a-service: the HTTP front end that turns
// the one-shot batch pipeline into a long-running analysis daemon
// (cmd/wasabid). The paper prices a single batch run at ~2,600 GPT-4
// calls and ~$8 per app (§4.3); serving re-analysis behind the
// content-addressed cache (internal/cache) makes the steady state
// incremental instead — an unchanged corpus re-analyzes with zero fresh
// LLM spend, and a one-file change re-reviews one file.
//
// Surface (docs/SERVICE.md is the full reference):
//
//	POST /v1/analyze            submit an analysis job (tenant queue full → 429)
//	GET  /v1/jobs/{id}          job status, and the canonical JSON report when done
//	GET  /v1/jobs/{id}/trace    the job's span tree (Chrome trace-event JSON)
//	GET  /v1/traces             index of retained traces, newest first
//	GET  /v1/reports/{app}      latest completed report section for one app
//	GET  /healthz               liveness (503 while draining)
//	GET  /metrics               Prometheus text exposition of the registry
//
// Jobs execute concurrently on Config.SchedulerSlots worker slots fed by
// per-tenant fair queues (scheduler.go, docs/SCHEDULING.md): every
// submission carries a tenant key (default DefaultTenant), tenants are
// served weighted round-robin under per-tenant in-flight quotas, and a
// full tenant queue answers 429 without affecting other tenants.
// Concurrency *inside* a job (core.Options.Workers) stays bounded and
// deterministic; every job shares the server's cache, snapshot store and
// metrics registry. Shutdown is a graceful drain: accepted jobs (queued
// or running) complete, new submissions are refused, and only then does
// the listener stop.
//
// Every job is observable end to end (docs/OBSERVABILITY.md "Daemon
// tracing"): submission mints a job context — job id, tenant, trace id —
// that rides every structured log event (log.go), every span of the
// job's private tracer (queue-wait → slot run → pipeline stages →
// per-file reviews), and the per-tenant cost series
// server_tenant_llm_tokens_total that pairs fair scheduling with fair
// billing.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/jsonwrite"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/report"
	"wasabi/internal/source"
)

// DefaultTenant is the tenant key of submissions that name none — the
// pre-tenancy API shape keeps working and lands in one shared queue.
const DefaultTenant = "shared"

// maxTenantLen bounds tenant names; they become metric label values, so
// unbounded attacker-chosen strings would bloat the registry.
const maxTenantLen = 64

// Config tunes the daemon.
type Config struct {
	// Addr is the listen address ("host:port"; ":0" picks a free port).
	Addr string
	// QueueDepth bounds each tenant's job queue; submissions beyond it
	// are refused with 429 for that tenant only. Zero means 8.
	QueueDepth int
	// SchedulerSlots is how many jobs run concurrently (the worker slot
	// count of the scheduler). Zero derives from the host: GOMAXPROCS,
	// floored at 2 so tenants overlap even on one core (job runtime is
	// not purely CPU-bound once the cache and disk tiers are warm).
	SchedulerSlots int
	// TenantQuota caps how many slots one tenant may occupy at once.
	// Zero means SchedulerSlots (a lone tenant may use every slot; set
	// it lower to guarantee idle headroom for late arrivals).
	TenantQuota int
	// TenantPriority maps tenant name → round-robin weight (≥1). A
	// tenant with weight w gets up to w consecutive picks per scheduling
	// cycle; unlisted tenants weigh 1. See docs/SCHEDULING.md.
	TenantPriority map[string]int
	// PipelineWorkers is core.Options.Workers for every job (0 = one per
	// CPU).
	PipelineWorkers int
	// Cache, when non-nil, is shared by every job (and its hit/miss
	// counters appear in /metrics when it was built on Obs's registry).
	Cache *cache.Cache
	// LLMBackends, when non-empty, routes every job's reviews through an
	// llm.Router over this topology (docs/RESILIENCE.md "Routing"); a
	// fault profile is the one-backend topology sim=sim:PROFILE. A live
	// topology gets ONE router for the daemon, so breaker state, the
	// shared retry/hedge budget, and singleflight coalescing span jobs
	// and tenants; a replayable one gets a fresh router per job, so each
	// job's report is reproducible.
	LLMBackends []llm.BackendSpec
	// LLMHedgeAfter launches a hedged attempt on the next healthy
	// backend after this much silence from the preferred one (0 disables
	// hedging). Only meaningful with a live LLMBackends topology.
	LLMHedgeAfter time.Duration
	// Obs observes the daemon: job, queue and scheduler metrics, plus
	// every pipeline metric of every job, accumulate in its registry,
	// which /metrics serves. Nil disables observability (including
	// /metrics content).
	Obs *obs.Observer
	// Pprof, when true, exposes the Go runtime profiler under
	// /debug/pprof/ (docs/SERVICE.md). Off by default: the endpoints
	// leak operational detail and cost CPU while profiling, so they are
	// opt-in (cmd/wasabid's -pprof flag).
	Pprof bool
	// Log receives the daemon's structured events (log.go catalogs
	// them); cmd/wasabid builds it from -log-format/-log-level. Nil
	// discards.
	Log *slog.Logger
	// TraceRing bounds how many finished jobs the daemon retains, with
	// their traces, for GET /v1/jobs/{id}, GET /v1/jobs/{id}/trace and
	// GET /v1/traces (oldest evicted first). Zero means DefaultTraceRing.
	TraceRing int
	// Corpus, when non-empty, replaces the built-in seed corpus as the
	// population jobs analyze — cmd/wasabid builds it from a generated
	// corpus root (-corpus, docs/CORPUSGEN.md). Analyze requests resolve
	// their app codes against this set, which New fixes once for the
	// daemon's lifetime.
	Corpus []corpus.App
}

// Server is the analysis daemon. Create with New, run with Start, stop
// with Shutdown.
type Server struct {
	cfg  Config
	obs  *obs.Observer
	http *http.Server
	ln   net.Listener
	// source is the daemon-lifetime snapshot store every job loads
	// corpus bytes through: content unchanged between jobs is never
	// re-parsed — and concurrent jobs over the same corpus parse each
	// file exactly once between them (per-entry sync.Once), which the
	// many-jobs race test pins (docs/PERFORMANCE.md).
	source *source.Store
	// sched fans submissions out to worker slots through per-tenant
	// fair queues (scheduler.go).
	sched *scheduler
	// runJob executes one job; it is s.run except in scheduler tests,
	// which substitute timed synthetic jobs to prove wall-clock overlap
	// and fairness without corpus noise.
	runJob func(*job)
	// log receives structured events (never nil; defaults to discard).
	log *slog.Logger
	// llmRouter is the daemon-lifetime live router (nil unless
	// LLMBackends is live): one per process, shared by every job, so
	// backend health outlives jobs and identical concurrent reviews
	// coalesce across tenants through its singleflight group.
	llmRouter *llm.Router
	// started is stamped by Start; the server.stop event's uptime_s
	// derives from it.
	started time.Time

	mu     sync.Mutex
	nextID int
	jobs   map[string]*job
	// finished lists the done and failed jobs still in jobs, oldest
	// first, at most cfg.TraceRing of them (retireLocked). Each carries
	// its trace, so job history and traces age out together; queued and
	// running jobs are never evicted.
	finished []*job
	// appReports holds the latest completed section of each app;
	// GET /v1/reports/{app} marshals it on demand.
	appReports map[string]report.App

	// byCode indexes the job population, cfg.Corpus, by app code. Jobs
	// share its suites and manifests read-only.
	byCode map[string]corpus.App
}

// job is one queued analysis request and its outcome.
type job struct {
	id     string
	tenant string
	// traceID is the job's wire-visible trace identity, minted at
	// submission alongside the id; logs, spans and the trace index all
	// carry it, so external systems can join on either.
	traceID string
	apps    []corpus.App
	// codes are the apps' short codes in order (nil for none), which
	// every view of the job lists.
	codes []string
	// submitted and started bound the queue-wait; started is stamped by
	// the scheduler when a slot picks the job.
	submitted time.Time
	started   time.Time

	// Guarded by Server.mu after submission.
	state string // "queued" | "running" | "done" | "failed"
	err   string
	// view and report are the rendered GET /v1/jobs/{id} body once the
	// job is done: the job's own members (renderDoneHead), then the
	// report, which jobs served the same kept document share.
	view, report []byte
	// trace is the finished job's span tree and index row (trace.go),
	// published with its done or failed state; nil before that.
	trace *traceEntry
}

// newTraceID mints a 64-bit random hex trace id.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is not a reason to refuse work; the job id
		// stays the unique key in that case.
		return "trace-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// New returns an unstarted server.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.SchedulerSlots <= 0 {
		cfg.SchedulerSlots = runtime.GOMAXPROCS(0)
		if cfg.SchedulerSlots < 2 {
			cfg.SchedulerSlots = 2
		}
	}
	if cfg.TenantQuota <= 0 || cfg.TenantQuota > cfg.SchedulerSlots {
		cfg.TenantQuota = cfg.SchedulerSlots
	}
	if len(cfg.Corpus) == 0 {
		cfg.Corpus = corpus.Apps()
	}
	if cfg.TraceRing <= 0 {
		cfg.TraceRing = DefaultTraceRing
	}
	log := cfg.Log
	if log == nil {
		log = discardLogger()
	}
	s := &Server{
		cfg:        cfg,
		obs:        cfg.Obs,
		log:        log,
		source:     source.NewStore(cfg.Obs.Reg()),
		jobs:       make(map[string]*job),
		appReports: make(map[string]report.App),
		sched:      newScheduler(cfg.SchedulerSlots, cfg.TenantQuota, cfg.QueueDepth, cfg.TenantPriority, cfg.Obs.Reg(), log),
	}
	s.byCode = make(map[string]corpus.App, len(cfg.Corpus))
	for _, app := range cfg.Corpus {
		s.byCode[app.Code] = app
	}
	s.runJob = s.run
	if len(cfg.LLMBackends) > 0 && !llm.Replayable(cfg.LLMBackends) {
		lcfg := llm.DefaultConfig()
		lcfg.Backends = cfg.LLMBackends
		lcfg.HedgeAfter = cfg.LLMHedgeAfter
		lcfg.Log = log
		rt, err := llm.NewRouter(lcfg)
		if err != nil {
			// Specs come from ParseBackends (cmd/wasabid validates the
			// flag); reaching here is programmer error.
			panic(err)
		}
		s.llmRouter = rt.Instrument(cfg.Obs.Reg())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/traces", s.handleTraces)
	mux.HandleFunc("GET /v1/reports/{app}", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.http = &http.Server{Handler: mux}
	s.obs.Reg().Gauge("server_queue_capacity").Set(float64(cfg.QueueDepth))
	s.obs.Reg().Gauge("server_trace_ring_capacity").Set(float64(cfg.TraceRing))
	s.obs.Reg().Gauge("wasabi_build_info", "version", Version, "go_version", runtime.Version(), "build", cache.BuildID()).Set(1)
	return s
}

// Start binds the listen address, launches the scheduler's worker slots
// and begins serving. It returns once the listener is bound; Addr
// reports the bound address (useful with ":0").
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.started = time.Now()
	s.obs.Reg().Gauge("server_start_time_seconds").Set(float64(s.started.UnixNano()) / 1e9)
	s.sched.start(func(j *job) { s.runJob(j) })
	go s.http.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	s.log.Info(evServerStart, "addr", s.Addr(), "slots", s.cfg.SchedulerSlots, "version", Version)
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains the daemon: new submissions are refused (healthz turns
// 503 so load balancers stop routing), every accepted job — queued on
// any tenant or running on any slot — runs to completion, then the HTTP
// listener closes. The context bounds the wait; on expiry the listener
// is closed anyway and the error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sched.drain()
	s.log.Info(evServerDrain)
	var err error
	select {
	case <-s.sched.done:
	case <-ctx.Done():
		err = fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	if s.ln != nil {
		s.ln.Close()
	}
	s.http.Close()
	uptime := 0.0
	if !s.started.IsZero() {
		uptime = time.Since(s.started).Seconds()
	}
	s.log.Info(evServerStop, "uptime_s", uptime)
	return err
}

// run executes one job through the pipeline. Multiple runs execute
// concurrently (one per busy slot); everything they share — cache,
// snapshot store, registry — is goroutine-safe, and per-job state lives
// in the job's own core.Wasabi instance.
//
// Observability scoping: the job gets a *private* tracer anchored at
// submission — so queue-wait is the first span of its own trace — with
// the job's correlation identity stamped on every span, while metrics
// keep flowing into the shared daemon registry. The pipeline's root
// "corpus" span is re-parented under the job's "run" span
// (SetRootParent), producing one connected tree per job: job →
// queue-wait + run → corpus → app → stages → per-file reviews.
func (s *Server) run(j *job) {
	s.mu.Lock()
	j.state = "running"
	s.mu.Unlock()
	start := time.Now()
	s.logJob(evJobStart, j, "queue_wait_ms", durMS(start.Sub(j.submitted)))

	tr := obs.NewTracerAt(j.submitted)
	tr.SetProcessName("wasabid " + j.id)
	tr.SetCommonArgs("job_id", j.id, "tenant", j.tenant, "trace_id", j.traceID)
	tr.SetRootParent("run")
	// The queue-wait, run and job spans recorded below.
	tr.Reserve(3)

	opts := core.DefaultOptions()
	opts.Workers = s.cfg.PipelineWorkers
	opts.Obs = s.obs.WithTracer(tr)
	opts.Cache = s.cfg.Cache
	opts.Source = s.source
	// Backends is set even alongside the shared router so the per-job
	// client's fingerprint reflects the topology; without a shared router
	// the client builds its own. The shared router carries the cross-job
	// state, its singleflight group included.
	opts.LLM.Backends = s.cfg.LLMBackends
	opts.LLM.HedgeAfter = s.cfg.LLMHedgeAfter
	opts.LLM.Router = s.llmRouter
	opts.LLM.Log = s.log
	w := core.New(opts)
	cr, err := w.RunCorpus(j.apps)

	// Build, marshal and render outside the server lock; only state
	// publication needs it.
	fresh := w.LLMUsage()
	var doc *report.Document
	var view, body []byte
	if err == nil {
		doc = report.Build(cr)
		v := jobView{ID: j.id, State: "done", Tenant: j.tenant, TraceID: j.traceID, Apps: j.codes, Build: cache.BuildID(),
			FreshLLM: &freshUsage{Calls: fresh.Calls, TokensIn: fresh.TokensIn, CostUSD: fresh.CostUSD}}
		if view, err = renderDoneHead(&v); err == nil {
			body, err = report.Body(cr, doc, 1, doneViewTail)
		}
	}

	end := time.Now()
	state := "done"
	if err != nil {
		state = "failed"
	}

	// Close out the job's span tree with the scheduler-side envelope
	// spans the pipeline could not see; retireLocked freezes it into the
	// job's record.
	tr.Record("queue-wait", "sched", j.submitted, start, "parent", "job")
	tr.Record("run", "sched", start, end, "parent", "job")
	tr.Record("job", "job", j.submitted, end, "state", state,
		"fresh_tokens", strconv.FormatInt(fresh.TokensIn, 10))
	trace := &traceEntry{tr: tr, meta: traceMeta{
		JobID: j.id, Tenant: j.tenant, TraceID: j.traceID, State: state,
		Spans: tr.SpanCount(), DurationMS: durMS(end.Sub(j.submitted)),
	}}

	// Tenant cost attribution. server_tenant_llm_tokens_total counts the
	// same event as llm_tokens_in_total — a fresh (uncached, undegraded)
	// review charging the backend — just keyed by who asked, so summing
	// it across live tenants plus the "_retired" fold (eviction moves a
	// leaving tenant's counts there; scheduler.go) equals the fleet
	// counter's growth exactly. Singleflight followers preserve the
	// invariant for free: a coalesced review never runs the charging
	// path, so the leader's tenant pays and the follower adds zero.
	reg := s.obs.Reg()
	reg.Counter("server_tenant_llm_tokens_total", "tenant", j.tenant).Add(fresh.TokensIn)

	if err == nil {
		if n := len(cr.DegradedFiles()); n > 0 {
			s.logJob(evJobDegraded, j, "degraded_files", n)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.retireLocked(j, trace)
	if err != nil {
		j.state, j.err = "failed", err.Error()
		reg.Counter("server_jobs_total", "status", "failed").Inc()
		s.logJob(evJobFinish, j, "state", state, "run_ms", durMS(end.Sub(start)), "error", err.Error())
		return
	}
	j.view, j.report = view, body
	for _, app := range doc.Apps {
		s.appReports[app.Code] = app
	}
	j.state = "done"
	reg.Counter("server_jobs_total", "status", "done").Inc()
	s.logJob(evJobFinish, j, "state", state, "run_ms", durMS(end.Sub(start)),
		"fresh_tokens", fresh.TokensIn, "spans", tr.SpanCount())
}

// retireLocked publishes j's finished trace and records j as finished,
// evicting the oldest finished jobs, traces and all, beyond
// cfg.TraceRing — the daemon's one retention rule. Nothing may record
// on the trace's tracer afterwards. s.mu must be held.
func (s *Server) retireLocked(j *job, trace *traceEntry) {
	reg := s.obs.Reg()
	j.trace = trace
	s.finished = append(s.finished, j)
	for len(s.finished) > s.cfg.TraceRing {
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = nil // let the evicted job's view and trace go
		s.finished = s.finished[1:]
		reg.Counter("server_trace_ring_evictions_total").Inc()
	}
	reg.Gauge("server_trace_ring_entries").Set(float64(len(s.finished)))
}

// durMS renders a duration as float milliseconds (the unit every
// latency histogram and log field uses).
func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// analyzeRequest is the POST /v1/analyze body.
type analyzeRequest struct {
	// Apps lists corpus short codes; empty means the full corpus.
	Apps []string `json:"apps"`
	// Tenant keys the submission to a fair queue (docs/SCHEDULING.md).
	// Empty means DefaultTenant, which keeps pre-tenancy clients working.
	Tenant string `json:"tenant"`
}

// parseAnalyzeRequest decodes and validates a POST /v1/analyze body: the
// JSON shape, the tenant default and length bound, the reserved "_"
// prefix and unique app codes. An accepted request carries its
// normalized tenant. Resolving the codes against the corpus is the
// caller's job, which keeps this a pure function of the body.
func parseAnalyzeRequest(body []byte) (analyzeRequest, error) {
	var req analyzeRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return analyzeRequest{}, fmt.Errorf("decode request: %w", err)
		}
	}
	req.Tenant = strings.TrimSpace(req.Tenant)
	if req.Tenant == "" {
		req.Tenant = DefaultTenant
	}
	if len(req.Tenant) > maxTenantLen {
		return analyzeRequest{}, fmt.Errorf("tenant name longer than %d bytes", maxTenantLen)
	}
	if strings.HasPrefix(req.Tenant, "_") {
		// "_"-prefixed names are reserved for server-side aggregates (the
		// "_retired" eviction fold); a tenant squatting one would corrupt
		// the cost-attribution series.
		return analyzeRequest{}, errors.New("tenant names starting with _ are reserved")
	}
	// A repeated code would analyze the app twice and charge the tenant
	// for both runs.
	seen := make(map[string]bool, len(req.Apps))
	for _, code := range req.Apps {
		if seen[code] {
			return analyzeRequest{}, fmt.Errorf("duplicate app code %q", code)
		}
		seen[code] = true
	}
	return req, nil
}

// jobView is the wire shape of a job (also the POST /v1/analyze
// response, minus report). appendViewHead writes it field by field, in
// this order and with these names; the view tests hold the two to
// encoding/json's bytes.
type jobView struct {
	ID      string   `json:"id"`
	State   string   `json:"state"`
	Tenant  string   `json:"tenant"`
	TraceID string   `json:"trace_id"`
	Apps    []string `json:"apps"`
	Error   string   `json:"error,omitempty"`
	// Build is the daemon executable's build identity (cache.BuildID),
	// the build whose compiled suites produce the job's dynamic results.
	// It stays out of the report, whose bytes must not depend on it.
	Build string `json:"build"`
	// FreshLLM is the LLM traffic the job actually generated — zero for
	// a fully cache-served run, unlike the report's attributed usage.
	FreshLLM *freshUsage `json:"fresh_llm,omitempty"`
	// Report is the canonical JSON document (internal/report), present
	// once the job is done. The done view is written from the document,
	// so the daemon never sets it; it names the member for clients that
	// decode a view.
	Report json.RawMessage `json:"report,omitempty"`
}

// freshUsage is llm.Usage with stable JSON keys.
type freshUsage struct {
	Calls    int     `json:"calls"`
	TokensIn int64   `json:"tokens_in"`
	CostUSD  float64 `json:"cost_usd"`
}

// resolveApps maps request app codes onto the daemon's population.
// Empty codes mean the whole population.
func (s *Server) resolveApps(codes []string) ([]corpus.App, error) {
	if len(codes) == 0 {
		return s.cfg.Corpus, nil
	}
	apps := make([]corpus.App, 0, len(codes))
	for _, code := range codes {
		app, ok := s.byCode[code]
		if !ok {
			return nil, fmt.Errorf("unknown app code %q", code)
		}
		apps = append(apps, app)
	}
	return apps, nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: "+err.Error())
		return
	}
	req, err := parseAnalyzeRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := req.Tenant
	apps, err := s.resolveApps(req.Apps)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.nextID),
		tenant:    tenant,
		traceID:   newTraceID(),
		apps:      apps,
		codes:     appCodes(apps),
		submitted: time.Now(),
		state:     "queued",
	}
	queued, err := s.sched.enqueue(j)
	if err != nil {
		s.nextID-- // not accepted: reuse the id
		s.mu.Unlock()
		s.obs.Reg().Counter("server_jobs_total", "status", "rejected").Inc()
		if err == errDraining {
			s.log.Info(evJobRejected, "tenant", tenant, "reason", "draining", "status", http.StatusServiceUnavailable)
			httpError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		s.log.Info(evJobRejected, "tenant", tenant, "reason", "queue-full", "status", http.StatusTooManyRequests)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "tenant job queue full")
		return
	}
	s.jobs[j.id] = j
	view := s.viewLocked(j)
	s.mu.Unlock()

	s.logJob(evJobAccepted, j, "apps", len(apps), "queue_depth", queued)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeView(w, http.StatusAccepted, &view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "unknown job")
		return
	}
	if head, body := j.view, j.report; head != nil {
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(head)
		w.Write(body)
		return
	}
	view := s.viewLocked(j)
	s.mu.Unlock()
	writeView(w, http.StatusOK, &view)
}

// viewLocked renders the wire shape of a job that is not done (done jobs
// carry their rendered view); s.mu must be held.
func (s *Server) viewLocked(j *job) jobView {
	return jobView{ID: j.id, State: j.state, Tenant: j.tenant, TraceID: j.traceID, Apps: j.codes, Error: j.err, Build: cache.BuildID()}
}

// appCodes lists the apps' short codes in order (nil for none, which
// the job view renders as null).
func appCodes(apps []corpus.App) []string {
	var out []string
	for _, app := range apps {
		out = append(out, app.Code)
	}
	return out
}

// appendViewHead appends v's members up to its report, as
// json.MarshalIndent(v, "", "  ") writes them, and leaves the object
// open; v.Report is not written.
func appendViewHead(b []byte, w *jsonwrite.Writer, v *jobView) []byte {
	b = w.Open(b, '{')
	b = jsonwrite.AppendString(w.Key(b, "id"), v.ID)
	b = jsonwrite.AppendString(w.Key(b, "state"), v.State)
	b = jsonwrite.AppendString(w.Key(b, "tenant"), v.Tenant)
	b = jsonwrite.AppendString(w.Key(b, "trace_id"), v.TraceID)
	b = jsonwrite.Strings(w.Key(b, "apps"), w, v.Apps)
	if v.Error != "" {
		b = jsonwrite.AppendString(w.Key(b, "error"), v.Error)
	}
	b = jsonwrite.AppendString(w.Key(b, "build"), v.Build)
	if u := v.FreshLLM; u != nil {
		b = w.Open(w.Key(b, "fresh_llm"), '{')
		b = strconv.AppendInt(w.Key(b, "calls"), int64(u.Calls), 10)
		b = strconv.AppendInt(w.Key(b, "tokens_in"), u.TokensIn, 10)
		b = jsonwrite.AppendFloat(w.Key(b, "cost_usd"), u.CostUSD)
		b = w.Close(b, '}')
	}
	return b
}

// writeView writes a queued, running or failed job's view: writeJSON's
// bytes for v, whose Report is empty.
func writeView(rw http.ResponseWriter, code int, v *jobView) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	var stack [512]byte
	var w jsonwrite.Writer
	rw.Write(append(w.Close(appendViewHead(stack[:0], &w, v), '}'), '\n'))
}

// A done job's GET /v1/jobs/{id} body is its head (renderDoneHead)
// followed by its report's body, report.Body(cr, doc, 1,
// doneViewTail): exactly writeJSON's bytes for the view with Report
// set to doc's report.Marshal output. Report is jobView's last member,
// so the document rendered at depth 1 after the view's other members,
// and then the view's close, are the bytes the encoder would have
// written. The body does not depend on the view: jobs served the same
// kept document share it, so a warm job allocates only its head.
const doneViewTail = "\n}\n"

// renderDoneHead renders a done job's view up to its report member, v
// without its Report, sized exactly because the job table retains
// every view. A non-finite fresh cost is an error, as it is for
// encoding/json.
func renderDoneHead(v *jobView) ([]byte, error) {
	if u := v.FreshLLM; u != nil && (math.IsNaN(u.CostUSD) || math.IsInf(u.CostUSD, 0)) {
		return nil, fmt.Errorf("server: render view: unsupported cost_usd %v", u.CostUSD)
	}
	var stack [512]byte
	var w jsonwrite.Writer
	b := w.Key(appendViewHead(stack[:0], &w, v), "report")
	head := make([]byte, len(b))
	copy(head, b)
	return head, nil
}

// handleJobTrace serves a completed job's span tree as Chrome
// trace-event JSON (open it in Perfetto / about://tracing as-is). Traces
// exist only for finished jobs the job table still retains; the 404
// message distinguishes "not finished yet" from "evicted or unknown".
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	data, known := s.trace(r.PathValue("id"))
	switch {
	case data != nil:
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	case known:
		httpError(w, http.StatusNotFound, "trace not available until the job completes")
	default:
		httpError(w, http.StatusNotFound, "no trace retained for job")
	}
}

// handleTraces serves the retained jobs' trace index, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traceIndex()})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	app, ok := s.appReports[r.PathValue("app")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no completed report for app")
		return
	}
	data, err := report.MarshalApp(app)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.sched.isDraining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteText(w, s.obs.Reg().Snapshot()) //nolint:errcheck // client gone
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON writes v as indented JSON.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(data, '\n'))
}
