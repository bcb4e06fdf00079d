// backends.go is the review router: one type that owns an ordered set of
// named backends, a circuit breaker per backend, the shared retry budget
// and the review arrival ordinals — the availability techniques the
// paper's §1 resilience-framework discussion points at, applied to the
// pipeline's own hottest dependency. A fault profile is the one-backend
// topology sim=sim:PROFILE, so single-backend chaos and multi-backend
// failover are the same machinery.
//
// The router picks its discipline from the topology:
//
//   - replayable (every backend a built-in "sim", no test transport):
//     a review's delivery reads only the file's path and size, its
//     position in the run and router state, so Client.StartRun settles
//     the whole run up front, from one goroutine in (lane, idx) order,
//     on a virtual admission clock, walking each admitted backend's pure
//     fault schedule and failing over in order. Grants, breaker trips,
//     failovers and degradations are a pure function of the corpus and
//     the topology, identical at every worker count;
//   - live (anything else): reviews route in arrival order on wall
//     time, with three composable mechanisms — health-gated failover
//     (an open breaker is skipped, and after the cooldown exactly one
//     half-open probe is admitted), hedged requests (after
//     Config.HedgeAfter a second attempt launches on the next healthy
//     backend, paying one budget token, so hedges and retries draw down
//     the same bounded pool), and singleflight (Flight).
//
// Review answers are computed locally (a pure function of config, path
// and contents); a backend only delivers or fails. So whenever the
// topology absorbs every fault — a hard primary outage with a healthy
// secondary, say — the output is byte-identical to a healthy run.
package llm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wasabi/internal/obs"
	"wasabi/internal/resilience"
	"wasabi/internal/trace"
	"wasabi/internal/vclock"
)

// Structured log events emitted by the routing layer (catalog in
// docs/OBSERVABILITY.md). They fire on *decisions* — failing over,
// launching or suppressing a hedge, a breaker changing state — not on
// every call.
const (
	evBackendFailover = "llm.backend_failover"
	evBackendHedge    = "llm.backend_hedge"
	evBackendBreaker  = "llm.backend_breaker"
)

// ErrAllBreakersOpen is returned by the router when every backend's
// circuit breaker refuses the call — there is nowhere left to route.
// Reviews hitting it degrade with reason DegradedBreakerOpen.
var ErrAllBreakersOpen = errors.New("llm: every backend circuit breaker is open")

// BackendSpec describes one named backend in a review topology.
// Order matters: the first spec is the preferred backend, later ones
// are failover (and hedge) targets in sequence.
type BackendSpec struct {
	// Name identifies the backend in metrics labels, trace spans and
	// log events. Names must be unique within a topology and match
	// [A-Za-z0-9_-]+ (they become metric label values).
	Name string
	// Kind selects the adapter: "sim" (the in-process simulator,
	// optionally behind a FaultProfile) or "http" (the OpenAI-compatible
	// adapter in httpbackend.go).
	Kind string
	// URL is the http kind's base URL (e.g. "http://127.0.0.1:8081").
	URL string
	// Fault optionally wraps a sim backend in a FaultyTransport so a
	// topology can mix healthy and failing simulators (chaos drills).
	Fault *FaultProfile
	// Transport, when non-nil, overrides Kind entirely — a test seam
	// for injecting slow or counting transports. It makes the topology
	// live.
	Transport Transport
}

// String renders the spec in ParseBackends' grammar (Transport
// overrides render by kind only; they are not round-trippable).
func (b BackendSpec) String() string {
	switch {
	case b.Kind == "http":
		return b.Name + "=http:" + b.URL
	case b.Fault != nil:
		return b.Name + "=sim:" + b.Fault.String()
	default:
		return b.Name + "=sim"
	}
}

// backendName validates metric-label-safe backend names.
var backendName = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// ParseBackends parses a backend-topology spec (the -llm-backends
// flag): entries separated by ";", each "name=sim", "name=sim:PROFILE"
// (PROFILE in ParseFaultProfile's grammar, commas and all) or
// "name=http:URL". Examples:
//
//	primary=sim
//	primary=sim:outage;secondary=sim
//	primary=http:http://127.0.0.1:8081;fallback=sim
//
// The entry separator is ";" because fault profiles already use ","
// internally.
func ParseBackends(spec string) ([]BackendSpec, error) {
	var out []BackendSpec
	seen := map[string]bool{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("llm: backends %q: entry %q wants name=kind[:detail]", spec, entry)
		}
		if !backendName.MatchString(name) {
			return nil, fmt.Errorf("llm: backends %q: name %q must match %s", spec, name, backendName)
		}
		if seen[name] {
			return nil, fmt.Errorf("llm: backends %q: duplicate backend name %q", spec, name)
		}
		seen[name] = true
		kind, detail, _ := strings.Cut(strings.TrimSpace(rest), ":")
		b := BackendSpec{Name: name, Kind: strings.TrimSpace(kind)}
		switch b.Kind {
		case "sim":
			if detail != "" {
				p, err := ParseFaultProfile(detail)
				if err != nil {
					return nil, fmt.Errorf("llm: backends %q: backend %q: %w", spec, name, err)
				}
				b.Fault = &p
			}
		case "http":
			if detail == "" {
				return nil, fmt.Errorf("llm: backends %q: backend %q: http kind wants a URL", spec, name)
			}
			b.URL = detail
		default:
			return nil, fmt.Errorf("llm: backends %q: backend %q: unknown kind %q (want sim or http)", spec, name, b.Kind)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("llm: backends %q: no backends", spec)
	}
	return out, nil
}

// backendsString renders a topology in ParseBackends' grammar — the
// form Config.Fingerprint folds into review-cache keys.
func backendsString(specs []BackendSpec) string {
	parts := make([]string, len(specs))
	for i, b := range specs {
		parts[i] = b.String()
	}
	return strings.Join(parts, ";")
}

// Replayable reports whether a topology settles reviews from pure fault
// schedules: every backend is a built-in simulator and none is
// overridden by a test transport. Any other topology routes live.
func Replayable(specs []BackendSpec) bool {
	for _, b := range specs {
		if b.Kind != "sim" || b.Transport != nil {
			return false
		}
	}
	return true
}

// backend is one routed backend: its adapter, its fault schedule (sim
// kinds) and its health state.
type backend struct {
	name string
	t    Transport
	// sim is the simulator's fault schedule (a zero profile when the
	// spec has none); nil for http backends and test transports.
	sim     *FaultyTransport
	breaker *resilience.Breaker
}

// Router delivers reviews across an ordered backend set with per-backend
// circuit breakers, a shared retry budget and failover, in the
// discipline its topology calls for (see the file comment). It is
// goroutine-safe: all breaker access is serialized under mu. A live
// router is designed to be shared — wasabid builds one per process so
// backend health survives across jobs; replayable routers are built per
// run (NewClient does it from Config.Backends).
type Router struct {
	res        ResilienceConfig
	seed       uint64
	hedgeAfter time.Duration
	replayable bool
	// budget is the shared retry/hedge token pool: every retry and every
	// hedge draws from the same bucket, which is what bounds total extra
	// spend ("retries are a global resource").
	budget *resilience.Budget
	// flight coalesces identical in-flight reviews across every client
	// sharing the router; live routers only (nil when replayable),
	// because a replayable review must read its own settled delivery.
	flight *Flight
	log    *slog.Logger

	mu       sync.Mutex
	backends []*backend
	reg      *obs.Registry
	start    time.Time
	// now is the live breaker clock (offsets since construction); wall
	// time by default, injectable for tests (SetClock).
	now func() time.Duration
	// admCtx carries a replayable router's virtual admission clock,
	// advanced per settlement; it resets with every run.
	admCtx context.Context
	// ord hands out live arrival ordinals (outage-after windows on sim
	// backends key on them); replayable ordinals are settle sequences.
	ord atomic.Int64
}

// NewRouter builds the router for cfg.Backends, with breakers and the
// shared budget sized by cfg.Resilience. The error cases are
// spec-validation failures; specs produced by ParseBackends never fail.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("llm: NewRouter wants at least one backend")
	}
	res := cfg.Resilience.withDefaults()
	rt := &Router{
		res:        res,
		seed:       cfg.Seed,
		hedgeAfter: cfg.HedgeAfter,
		replayable: Replayable(cfg.Backends),
		budget:     resilience.NewBudget(res.BudgetCapacity, res.BudgetRefillEvery),
		log:        cfg.Log,
		start:      time.Now(),
	}
	if !rt.replayable {
		rt.flight = NewFlight()
	}
	if rt.log == nil {
		// Discard: no record reaches the level, so none is formatted.
		rt.log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))
	}
	rt.now = func() time.Duration { return time.Since(rt.start) }
	for _, spec := range cfg.Backends {
		b := &backend{name: spec.Name, t: spec.Transport}
		if b.t == nil {
			switch spec.Kind {
			case "sim":
				var p FaultProfile
				if spec.Fault != nil {
					p = *spec.Fault
				}
				b.sim = NewFaultyTransport(nil, p, cfg.Seed)
				b.t = b.sim
			case "http":
				b.t = NewHTTPBackend(spec.URL)
			default:
				return nil, fmt.Errorf("llm: backend %q: unknown kind %q", spec.Name, spec.Kind)
			}
		}
		rt.backends = append(rt.backends, b)
	}
	rt.resetBreakers()
	rt.admCtx = newAdmissionClock()
	return rt, nil
}

// newAdmissionClock returns a fresh virtual clock for replayable
// admissions.
func newAdmissionClock() context.Context {
	return trace.With(context.Background(), trace.NewRun("llm-admission"))
}

// resetBreakers installs a fresh closed breaker on every backend.
func (rt *Router) resetBreakers() {
	for _, b := range rt.backends {
		b := b
		b.breaker = resilience.NewBreaker(rt.res.BreakerThreshold, rt.res.BreakerCooldown)
		b.breaker.OnTransition(func(to resilience.BreakerState) { rt.onBreakerLocked(b, to) })
		rt.reg.Gauge("llm_backend_breaker_state", "backend", b.name).Set(breakerStateValue(resilience.Closed))
	}
}

// reset returns a replayable router to its start-of-run state: fresh
// breakers and admission clock (state from a previous run must not leak
// into the next), and a refilled budget.
func (rt *Router) reset() {
	rt.mu.Lock()
	rt.resetBreakers()
	rt.admCtx = newAdmissionClock()
	rt.mu.Unlock()
	rt.budget.Reset()
}

// Instrument attaches a metrics registry once (later calls are no-ops,
// so per-job clients sharing a daemon-lifetime router cannot rebind it
// mid-flight) and returns the router for chaining.
func (rt *Router) Instrument(reg *obs.Registry) *Router {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.reg == nil && reg != nil {
		rt.reg = reg
		for _, b := range rt.backends {
			if b.sim != nil {
				b.sim.Instrument(reg)
			}
			reg.Gauge("llm_backend_breaker_state", "backend", b.name).Set(breakerStateValue(b.breaker.State()))
		}
	}
	return rt
}

// SetClock overrides the live breaker clock — a test seam for driving
// cooldowns without waiting wall time.
func (rt *Router) SetClock(now func() time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.now = now
}

// Budget exposes the shared retry/hedge token pool (for tests asserting
// the hedge bound).
func (rt *Router) Budget() *resilience.Budget { return rt.budget }

// breakerStateValue encodes a breaker state for the
// llm_backend_breaker_state gauge: 0 closed, 1 open, 2 half-open.
func breakerStateValue(s resilience.BreakerState) float64 {
	switch s {
	case resilience.Open:
		return 1
	case resilience.HalfOpen:
		return 2
	}
	return 0
}

// onBreakerLocked is the per-backend breaker transition hook. Breakers
// are only ever touched under rt.mu, so this runs locked — it must read
// rt.reg directly, not through a locking accessor.
func (rt *Router) onBreakerLocked(b *backend, to resilience.BreakerState) {
	rt.reg.Counter("llm_backend_breaker_transitions_total", "backend", b.name, "to", to.String()).Inc()
	rt.reg.Gauge("llm_backend_breaker_state", "backend", b.name).Set(breakerStateValue(to))
	rt.log.Info(evBackendBreaker, "backend", b.name, "state", to.String())
}

// registry returns the attached registry (nil-safe for metrics calls).
func (rt *Router) registry() *obs.Registry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.reg
}

// delivery is one review's routed outcome: the backend that answered,
// the retries it consumed, and — when no backend delivered — the
// terminal error and whether the shared budget refused a retry.
type delivery struct {
	backend      string
	retries      int
	err          error
	budgetDenied bool
}

// deliver routes one review in the router's discipline.
func (rt *Router) deliver(path string, size int) delivery {
	if rt.replayable {
		return rt.settle(path, size)
	}
	return rt.retryRoute(path, size)
}

// settle is the replayable discipline: one review's whole delivery,
// decided in one budget claim on the virtual admission clock. Each
// admitted backend's fault schedule is walked attempt by attempt — the
// schedule FaultyTransport.Do executes — granting one retry token per
// transient fault while the budget lasts and MaxAttempts allows; the
// attempts are charged to the clock and the outcome to the backend's
// breaker, and a backend that fails the review hands it to the next
// admitted backend in topology order. No backend call is executed, so
// settling a run's reviews in a fixed order (StartRun) makes every
// decision a pure function of the corpus and the topology.
//
// Counters match what executing the schedule would record: one
// llm_transport_faults_total per faulted attempt, and — since nothing is
// called — no llm_backend_calls_total. A backend failure is counted in
// llm_backend_failures_total only when the review fails over; the last
// one is counted as the review's degradation.
func (rt *Router) settle(path string, size int) delivery {
	var d delivery
	rt.budget.Claim(func(avail, seq int) int {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		used := 0
		var failed *backend
		for _, b := range rt.backends {
			if !b.breaker.Allow(vclock.Now(rt.admCtx)) {
				continue
			}
			if failed != nil {
				rt.reg.Counter("llm_backend_failures_total", "backend", failed.name).Inc()
				rt.reg.Counter("llm_backend_failovers_total", "backend", b.name).Inc()
				rt.log.Info(evBackendFailover, "path", path, "from", failed.name, "to", b.name, "error", d.err.Error())
			}
			attempt := 0
			var kind string
			for {
				if kind = b.sim.faultAt(path, seq, attempt); kind != "" {
					rt.reg.Counter("llm_transport_faults_total", "kind", kind).Inc()
				}
				if kind == "" || kind == FaultMalformed || kind == FaultOutage || attempt+1 >= rt.res.MaxAttempts {
					break
				}
				if used == avail {
					d.budgetDenied = true
					rt.reg.Counter("llm_retry_budget_exhausted_total").Inc()
					break
				}
				used++
				attempt++
			}
			d.retries += attempt
			vclock.Elapse(rt.admCtx, time.Duration(attempt+1)*attemptLatency)
			if kind == "" {
				b.breaker.RecordSuccess()
				d.backend, d.err = b.name, nil
				return used
			}
			b.breaker.RecordFailure(vclock.Now(rt.admCtx))
			d.err = faultError(kind, Call{Path: path, Ordinal: seq, Attempt: attempt, Bytes: size})
			failed = b
		}
		if failed == nil {
			d.err = ErrAllBreakersOpen
			vclock.Elapse(rt.admCtx, skipLatency)
		}
		return used
	})
	return d
}

// retryRoute is the live discipline: Route under the retry policy.
// Transient route failures retry with decorrelated-jitter backoff (on a
// per-review virtual clock; the route's own latency — hedge timers, real
// HTTP — is wall time), each retry paying one token from the shared
// budget.
func (rt *Router) retryRoute(path string, size int) delivery {
	var d delivery
	reg := rt.registry()
	ordinal := int(rt.ord.Add(1)) - 1
	attempt := 0
	policy := resilience.NewPolicy(rt.res.MaxAttempts,
		resilience.WithDecorrelatedJitter(rt.res.BaseDelay, rt.res.MaxDelay),
		resilience.WithRetryOn(func(err error) bool {
			if !IsTransient(err) {
				return false
			}
			if !rt.takeToken() {
				d.budgetDenied = true
				reg.Counter("llm_retry_budget_exhausted_total").Inc()
				return false
			}
			return true
		}))
	reviewCtx := trace.With(context.Background(), trace.NewRun("llm-review"))
	d.err = policy.DoSeeded(reviewCtx, pathSeed(path, rt.seed), func(ctx context.Context) error {
		call := Call{Path: path, Ordinal: ordinal, Attempt: attempt, Bytes: size}
		attempt++
		name, err := rt.Route(ctx, call)
		d.backend = name
		return err
	})
	rt.tick()
	d.retries = attempt - 1
	return d
}

// takeToken claims one token from the shared budget, reporting whether
// it was granted.
func (rt *Router) takeToken() bool {
	granted := false
	rt.budget.Claim(func(avail, _ int) int {
		if avail > 0 {
			granted = true
			return 1
		}
		return 0
	})
	return granted
}

// tick settles one zero-token claim, advancing the budget's
// refill-every-N-settlements clock — the live analogue of the per-review
// settlement a replayable router performs.
func (rt *Router) tick() {
	rt.budget.Claim(func(int, int) int { return 0 })
}

// nextAdmitted finds the first backend at position >= from whose
// breaker admits a call right now, returning it and the position after
// it. Admission happens lazily — at most one backend is consulted per
// launch — because a half-open Allow *claims* the single probe slot;
// admitting backends speculatively would leak their probe latches.
func (rt *Router) nextAdmitted(from int) (*backend, int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	now := rt.now()
	for i := from; i < len(rt.backends); i++ {
		if rt.backends[i].breaker.Allow(now) {
			return rt.backends[i], i + 1
		}
	}
	return nil, len(rt.backends)
}

// releaseAdmission hands back an admission nextAdmitted granted for a
// call that will never launch. Admitting a half-open backend latches
// its single probe slot, and only a settled outcome (or this release)
// clears the latch — a suppressed hedge that kept the slot would leave
// the backend unroutable forever.
func (rt *Router) releaseAdmission(b *backend) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	b.breaker.CancelProbe()
}

// recordOutcome settles one finished call against its backend's
// breaker. A context-cancellation is no verdict on the backend (we
// abandoned the call, usually because a hedged rival answered first):
// it only releases a claimed half-open probe slot.
func (rt *Router) recordOutcome(b *backend, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch {
	case err == nil:
		b.breaker.RecordSuccess()
	case isCancellation(err):
		b.breaker.CancelProbe()
	default:
		b.breaker.RecordFailure(rt.now())
	}
}

// routeResult is one backend call's outcome inside Route.
type routeResult struct {
	b     *backend
	err   error
	hedge bool
}

// Route is the live discipline's delivery of one call across the
// backend set; it returns the name of the backend that answered. The
// preferred (first healthy) backend
// is tried first; if HedgeAfter elapses without an answer, a hedge
// launches on the next healthy backend — if the shared budget grants a
// token — and the first success wins, cancelling the loser. When every
// launched attempt fails, routing falls over to the next healthy
// backend in order until the set is exhausted. Every outcome settles
// the owning backend's breaker; an all-breakers-open set returns
// ErrAllBreakersOpen without touching any backend.
func (rt *Router) Route(ctx context.Context, call Call) (string, error) {
	reg := rt.registry()
	first, next := rt.nextAdmitted(0)
	if first == nil {
		reg.Counter("llm_backend_all_open_total").Inc()
		return "", ErrAllBreakersOpen
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan routeResult, len(rt.backends))
	launch := func(b *backend, hedge bool) {
		reg.Counter("llm_backend_calls_total", "backend", b.name).Inc()
		go func() {
			err := b.t.Do(cctx, call)
			results <- routeResult{b: b, err: err, hedge: hedge}
		}()
	}
	launch(first, false)
	inflight := 1
	var hedgeTimer <-chan time.Time
	if rt.hedgeAfter > 0 && next < len(rt.backends) {
		hedgeTimer = time.After(rt.hedgeAfter)
	}
	hedged := false
	var lastErr error
	for {
		select {
		case <-hedgeTimer:
			hedgeTimer = nil
			hb, hnext := rt.nextAdmitted(next)
			if hb == nil {
				reg.Counter("llm_backend_hedges_total", "outcome", "suppressed").Inc()
				continue
			}
			if !rt.takeToken() {
				// The hedge competes with retries for the same tokens;
				// an empty bucket means the fleet is already spending
				// enough on second chances. nextAdmitted may have
				// latched hb's half-open probe slot — no call will
				// launch to settle it, so hand it back.
				rt.releaseAdmission(hb)
				reg.Counter("llm_backend_hedges_total", "outcome", "suppressed").Inc()
				reg.Counter("llm_retry_budget_exhausted_total").Inc()
				continue
			}
			reg.Counter("llm_backend_hedges_total", "outcome", "launched").Inc()
			rt.log.Info(evBackendHedge, "path", call.Path, "backend", hb.name, "after_ms", durFloatMS(rt.hedgeAfter))
			launch(hb, true)
			hedged = true
			inflight++
			next = hnext
		case r := <-results:
			inflight--
			rt.recordOutcome(r.b, r.err)
			if r.err == nil {
				if r.hedge {
					reg.Counter("llm_backend_hedges_total", "outcome", "won").Inc()
				} else if hedged && inflight > 0 {
					reg.Counter("llm_backend_hedges_total", "outcome", "cancelled").Inc()
				}
				cancel()
				if inflight > 0 {
					go rt.drainResults(results, inflight)
				}
				return r.b.name, nil
			}
			reg.Counter("llm_backend_failures_total", "backend", r.b.name).Inc()
			if !isCancellation(r.err) {
				lastErr = r.err
			}
			if inflight > 0 {
				continue // a rival attempt is still running
			}
			fb, fnext := rt.nextAdmitted(next)
			if fb == nil {
				if lastErr == nil {
					lastErr = r.err
				}
				return "", lastErr
			}
			reg.Counter("llm_backend_failovers_total", "backend", fb.name).Inc()
			rt.log.Info(evBackendFailover, "path", call.Path, "from", r.b.name, "to", fb.name, "error", r.err.Error())
			launch(fb, false)
			next = fnext
			inflight++
		}
	}
}

// drainResults settles the breakers of attempts still in flight after a
// winner returned. It runs off the caller's critical path; the
// cancelled context makes the stragglers return promptly.
func (rt *Router) drainResults(results <-chan routeResult, n int) {
	for i := 0; i < n; i++ {
		r := <-results
		rt.recordOutcome(r.b, r.err)
	}
}

// durFloatMS renders a duration as float milliseconds for log fields.
func durFloatMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Flight coalesces identical in-flight reviews: callers reviewing the
// same content address (config fingerprint, path, content hash — the
// review-cache key ingredients) while an equivalent review is already
// running wait for that review's answer instead of spending another
// upstream call. Every live Router owns one, shared by all its clients
// (wasabid's one router per process coalesces across concurrent jobs).
// Only *in-flight* duplication coalesces — once the leader finishes, the
// next caller starts fresh (cross-run memoization is the cache's job,
// not ours).
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	rev  FileReview
}

// NewFlight returns an empty singleflight group.
func NewFlight() *Flight {
	return &Flight{calls: make(map[string]*flightCall)}
}

// Do runs fn for the first caller of key and hands its FileReview to
// every caller that arrives while fn is in flight. The bool reports
// whether this caller shared a leader's answer (true) or ran fn itself
// (false). Shared copies alias nothing mutable with the leader's.
func (f *Flight) Do(key string, fn func() FileReview) (FileReview, bool) {
	f.mu.Lock()
	if fc, ok := f.calls[key]; ok {
		f.mu.Unlock()
		<-fc.done
		rev := fc.rev
		rev.Findings = append([]Finding(nil), fc.rev.Findings...)
		return rev, true
	}
	fc := &flightCall{done: make(chan struct{})}
	f.calls[key] = fc
	f.mu.Unlock()
	defer func() {
		// Unregister before release: late arrivals must start a fresh
		// flight, and a panic in fn must not strand waiters.
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		close(fc.done)
	}()
	fc.rev = fn()
	return fc.rev, false
}
