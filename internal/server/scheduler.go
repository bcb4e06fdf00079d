// scheduler.go is the daemon's concurrent multi-tenant job scheduler.
// The serial runner it replaces executed jobs one at a time off a single
// FIFO channel, so one slow corpus head-of-line-blocked every other
// caller — the §4.3 cost story (batch analysis is expensive, so serve it
// incrementally) only pays off if independent tenants can actually get
// served independently.
//
// Shape (docs/SCHEDULING.md is the full reference):
//
//   - Every tenant owns a bounded FIFO queue; submission is admission to
//     the tenant's queue (full → 429 for that tenant only).
//   - N worker slots (Config.SchedulerSlots) pull jobs through a
//     weighted round-robin pick over the tenants, so a tenant with a
//     deep backlog cannot starve one with a single queued job.
//   - A per-tenant in-flight quota (Config.TenantQuota) bounds how many
//     slots one tenant can occupy at once.
//   - Drain closes admission; every accepted job still runs to
//     completion before the workers exit.
//
// The pick order is deterministic given the queue states: tenants are
// kept sorted by name, the round-robin cursor advances predictably, and
// weights grant consecutive picks (a tenant with weight w gets up to w
// picks per replenish cycle). What is *not* deterministic is wall-clock
// interleaving — jobs genuinely overlap, which is the point. All shared
// state under the jobs (snapshot store, review cache, metrics registry)
// is goroutine-safe by construction; the many-jobs race test asserts the
// parse-once contract holds across concurrent jobs.
package server

import (
	"errors"
	"log/slog"
	"sort"
	"sync"
	"time"

	"wasabi/internal/obs"
)

// Admission errors returned by scheduler.enqueue.
var (
	errDraining  = errors.New("draining")
	errQueueFull = errors.New("tenant queue full")
)

// tenantQueue is one tenant's scheduling state: its FIFO backlog, its
// in-flight count against the quota, and its round-robin credit.
type tenantQueue struct {
	name string
	jobs []*job
	// inflight counts this tenant's jobs currently occupying slots.
	inflight int
	// weight is the priority knob: up to weight picks per credit cycle.
	weight int
	// credit is the remaining picks in the current cycle.
	credit int
}

// scheduler owns the per-tenant queues and the worker slots.
type scheduler struct {
	slots int
	quota int
	depth int
	// weights maps tenant name → round-robin weight (default 1).
	weights map[string]int
	reg     *obs.Registry
	log     *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	// order keeps tenant names sorted so the round-robin sweep is
	// deterministic given the queue states.
	order   []string
	cursor  int
	queued  int
	busy    int
	busyMax int

	draining bool
	started  bool
	done     chan struct{}
	wg       sync.WaitGroup
}

// newScheduler sizes the scheduler from a validated Config. log may be
// nil (tests); events then discard.
func newScheduler(slots, quota, depth int, weights map[string]int, reg *obs.Registry, log *slog.Logger) *scheduler {
	if log == nil {
		log = discardLogger()
	}
	s := &scheduler{
		slots:   slots,
		quota:   quota,
		depth:   depth,
		weights: weights,
		reg:     reg,
		log:     log,
		tenants: make(map[string]*tenantQueue),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	reg.Gauge("server_sched_slots").Set(float64(slots))
	reg.Gauge("server_sched_tenant_quota").Set(float64(quota))
	return s
}

// tenantLocked returns (creating if needed) the tenant's queue, keeping
// order sorted; s.mu must be held.
func (s *scheduler) tenantLocked(name string) *tenantQueue {
	if t := s.tenants[name]; t != nil {
		return t
	}
	w := s.weights[name]
	if w <= 0 {
		w = 1
	}
	t := &tenantQueue{name: name, weight: w, credit: w}
	s.tenants[name] = t
	i := sort.SearchStrings(s.order, name)
	s.order = append(s.order, "")
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = name
	if i <= s.cursor && len(s.order) > 1 {
		s.cursor++ // keep the cursor on the tenant it pointed at
	}
	return t
}

// enqueue admits a job to its tenant's queue, returning the tenant's
// resulting backlog depth. It returns errDraining after drain began and
// errQueueFull when the tenant's backlog is at capacity — callers map
// those to 503 and 429 respectively. The queue depth gauges move at
// enqueue time (not just at dequeue), so /metrics never reads a stale
// depth between jobs.
func (s *scheduler) enqueue(j *job) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0, errDraining
	}
	t := s.tenantLocked(j.tenant)
	if len(t.jobs) >= s.depth {
		s.reg.Counter("server_sched_rejections_total", "tenant", t.name).Inc()
		return len(t.jobs), errQueueFull
	}
	t.jobs = append(t.jobs, j)
	s.queued++
	s.reg.Counter("server_sched_jobs_total", "tenant", t.name).Inc()
	s.reg.Gauge("server_sched_queue_depth", "tenant", t.name).Set(float64(len(t.jobs)))
	s.cond.Signal()
	return len(t.jobs), nil
}

// pickLocked selects the next runnable job by weighted round-robin:
// sweep the sorted tenants from the cursor, skipping empty queues,
// tenants at quota, and tenants out of credit; if only credit blocked
// the sweep, replenish every tenant's credit and sweep once more. A nil
// return means every queued job belongs to a tenant at quota (or nothing
// is queued). s.mu must be held.
func (s *scheduler) pickLocked() *job {
	if s.queued == 0 {
		return nil
	}
	for pass := 0; pass < 2; pass++ {
		n := len(s.order)
		for i := 0; i < n; i++ {
			idx := (s.cursor + i) % n
			t := s.tenants[s.order[idx]]
			if len(t.jobs) == 0 || t.inflight >= s.quota || t.credit <= 0 {
				continue
			}
			t.credit--
			if t.credit == 0 {
				s.cursor = (idx + 1) % n // cycle on; the next sweep starts past this tenant
			} else {
				s.cursor = idx // consecutive picks up to the weight
			}
			j := t.jobs[0]
			t.jobs = t.jobs[1:]
			s.queued--
			t.inflight++
			s.reg.Gauge("server_sched_queue_depth", "tenant", t.name).Set(float64(len(t.jobs)))
			s.reg.Gauge("server_sched_tenant_inflight", "tenant", t.name).Set(float64(t.inflight))
			return j
		}
		for _, t := range s.tenants {
			t.credit = t.weight
		}
	}
	return nil
}

// start launches the worker slots; each runs jobs until drain completes.
func (s *scheduler) start(run func(*job)) {
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	s.wg.Add(s.slots)
	for i := 0; i < s.slots; i++ {
		go func() {
			defer s.wg.Done()
			for {
				j := s.next()
				if j == nil {
					return
				}
				run(j)
				s.finish(j)
			}
		}()
	}
	go func() {
		s.wg.Wait()
		close(s.done)
	}()
}

// next blocks until a job is runnable or the drain has emptied the
// queues, in which case it returns nil and the worker exits.
func (s *scheduler) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.pickLocked(); j != nil {
			s.busy++
			if s.busy > s.busyMax {
				s.busyMax = s.busy
				s.reg.Gauge("server_sched_slots_busy_max").Set(float64(s.busyMax))
			}
			s.reg.Gauge("server_sched_slots_busy").Set(float64(s.busy))
			j.started = time.Now()
			s.reg.Histogram("server_sched_job_wait_ms", obs.LatencyBuckets).
				Observe(float64(j.started.Sub(j.submitted)) / float64(time.Millisecond))
			return j
		}
		if s.draining && s.queued == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

// finish releases the job's slot and quota share. It broadcasts because
// one completion can make several waiters runnable (a freed slot and a
// freed quota unit are different wake conditions). A tenant left with no
// backlog and no in-flight jobs is evicted on the spot.
func (s *scheduler) finish(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[j.tenant]
	t.inflight--
	s.busy--
	s.reg.Gauge("server_sched_tenant_inflight", "tenant", t.name).Set(float64(t.inflight))
	s.reg.Gauge("server_sched_slots_busy").Set(float64(s.busy))
	s.reg.Histogram("server_sched_job_run_ms", obs.LatencyBuckets).
		Observe(float64(time.Since(j.started)) / float64(time.Millisecond))
	if len(t.jobs) == 0 && t.inflight == 0 {
		s.evictLocked(t)
	}
	s.cond.Broadcast()
}

// RetiredTenant is the reserved label value eviction folds a leaving
// tenant's monotonic counters into. handleAnalyze rejects "_"-prefixed
// tenant names, so no real tenant can collide with it.
const RetiredTenant = "_retired"

// evictLocked reclaims an idle tenant's observability state — the
// KNOWN_ISSUES "tenant state never reclaimed" fix, completed by the
// "counters outlive tenant eviction" follow-up: a daemon serving a long
// tail of one-shot tenants no longer accumulates a queue struct, a
// sorted-order slot, two gauges, three counter series and a histogram
// per tenant forever. State gauges are simply removed (a depth gauge
// for a tenant that isn't there would be a lie). Monotonic counters
// cannot just vanish — Prometheus-style sums must never go backwards —
// so they fold into the RetiredTenant series: sum-across-tenants
// invariants (e.g. tenant token spend vs the fleet's
// llm_tokens_in_total) keep holding over live tenants + "_retired".
// The per-tenant latency histogram is dropped outright; distributions
// have no meaningful fold. A returning tenant is re-created with fresh
// round-robin credit and restarts its series from zero, which is
// exactly what a brand-new tenant gets. s.mu must be held.
func (s *scheduler) evictLocked(t *tenantQueue) {
	delete(s.tenants, t.name)
	i := sort.SearchStrings(s.order, t.name)
	s.order = append(s.order[:i], s.order[i+1:]...)
	if s.cursor > i {
		s.cursor--
	}
	if len(s.order) > 0 {
		s.cursor %= len(s.order)
	} else {
		s.cursor = 0
	}
	s.reg.Counter("server_sched_tenant_evictions_total").Inc()
	s.reg.RemoveGauge("server_sched_queue_depth", "tenant", t.name)
	s.reg.RemoveGauge("server_sched_tenant_inflight", "tenant", t.name)
	for _, name := range []string{
		"server_sched_jobs_total",
		"server_sched_rejections_total",
		"server_tenant_llm_tokens_total",
	} {
		// One registry operation per family: a /metrics scrape landing
		// mid-eviction must see the source series or the grown _retired
		// aggregate, never the gap between.
		s.reg.FoldCounter(name, []string{"tenant", t.name}, []string{"tenant", RetiredTenant})
	}
	s.reg.RemoveHistogram("server_tenant_job_ms", "tenant", t.name)
	s.log.Info(evTenantEvicted, "tenant", t.name)
}

// isDraining reports whether drain has closed admission — the daemon's
// one draining flag, which /healthz reads.
func (s *scheduler) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drain closes admission and wakes every worker so they can exit once
// the backlog is empty. Accepted jobs keep running to completion. When
// the workers were never started there is nothing to wait for, so done
// closes immediately.
func (s *scheduler) drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	if !s.started {
		close(s.done)
	}
	s.cond.Broadcast()
}
