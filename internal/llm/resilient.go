// resilient.go is the client's one review path under a router: every
// review is delivered through the Router (backends.go) — a shared retry
// Budget, a circuit Breaker per backend, failover in topology order —
// and, when no backend can be made to answer, degraded instead of
// failed, so the pipeline falls back to its static-only workflow (the
// paper's non-LLM techniques keep working when GPT-4 does not).
//
// The router settles a review's delivery in one of two disciplines,
// picked from the topology: a replayable topology (built-in simulators
// only) settles a whole run up front (StartRun), from the backends' pure
// fault schedules in (lane, idx) order on a virtual clock, so output and
// counters are identical at every worker count; any other topology
// routes each review live. Either way the outcome comes back as one
// delivery, and this file maps it onto a FileReview — one retry count,
// one degrade vocabulary.
package llm

import (
	"context"
	"errors"
	"hash/fnv"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/source"
)

// Degradation reasons recorded on FileReview.DegradedReason.
const (
	// DegradedOutage: the backend is hard-down (outage fault); retrying
	// is pointless and the run itself is considered degraded.
	DegradedOutage = "outage"
	// DegradedMalformed: the completion arrived but was unparseable, and
	// re-sending the same prompt reproduces it.
	DegradedMalformed = "malformed"
	// DegradedBudget: the shared retry budget ran dry before this
	// review's transient faults cleared.
	DegradedBudget = "budget-exhausted"
	// DegradedRetries: the per-review attempt cap was reached with the
	// fault still transient.
	DegradedRetries = "retries-exhausted"
	// DegradedBreakerOpen: every backend's circuit breaker was open, so
	// the review was skipped without touching any backend.
	DegradedBreakerOpen = "breaker-open"
	// DegradedCancelled: the review's context was cancelled before any
	// backend answered (shutdown or caller abandonment on a live router)
	// — the abandonment says nothing about backend health.
	DegradedCancelled = "cancelled"
)

// ResilienceConfig tunes the router's retry policy, shared budget and
// breakers. Zero fields take the DefaultResilienceConfig values.
type ResilienceConfig struct {
	// MaxAttempts bounds delivery attempts per review (so MaxAttempts-1
	// retries), independent of the shared budget.
	MaxAttempts int
	// BaseDelay and MaxDelay bound the decorrelated-jitter backoff
	// between attempts (virtual time).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// BudgetCapacity is the size of the retry token bucket shared across
	// every concurrent review of the run.
	BudgetCapacity int
	// BudgetRefillEvery returns one token to the bucket per N settled
	// reviews. Like every field, 0 takes the default (4); a negative
	// value disables refill, for a strict per-run budget.
	BudgetRefillEvery int
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit.
	BreakerThreshold int
	// BreakerCooldown is the virtual time the circuit stays open before
	// admitting a half-open probe.
	BreakerCooldown time.Duration
}

// DefaultResilienceConfig returns the stack the pipeline runs chaos
// experiments with.
func DefaultResilienceConfig() ResilienceConfig {
	return ResilienceConfig{
		MaxAttempts:       4,
		BaseDelay:         500 * time.Millisecond,
		MaxDelay:          8 * time.Second,
		BudgetCapacity:    8,
		BudgetRefillEvery: 4,
		BreakerThreshold:  3,
		BreakerCooldown:   5 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultResilienceConfig.
func (r ResilienceConfig) withDefaults() ResilienceConfig {
	d := DefaultResilienceConfig()
	if r.MaxAttempts == 0 {
		r.MaxAttempts = d.MaxAttempts
	}
	if r.BaseDelay == 0 {
		r.BaseDelay = d.BaseDelay
	}
	if r.MaxDelay == 0 {
		r.MaxDelay = d.MaxDelay
	}
	if r.BudgetCapacity == 0 {
		r.BudgetCapacity = d.BudgetCapacity
	}
	if r.BudgetRefillEvery == 0 {
		r.BudgetRefillEvery = d.BudgetRefillEvery
	}
	if r.BreakerThreshold == 0 {
		r.BreakerThreshold = d.BreakerThreshold
	}
	if r.BreakerCooldown == 0 {
		r.BreakerCooldown = d.BreakerCooldown
	}
	return r
}

// Virtual costs charged to a replayable router's admission clock, which
// drives its breaker cooldowns: each delivery attempt models an API round
// trip, and a breaker-skipped review still advances time (the pipeline
// keeps doing static work while the backend cools down).
const (
	attemptLatency = 800 * time.Millisecond
	skipLatency    = 500 * time.Millisecond
)

// StartRun settles a replayable run up front. It resets the router's
// breakers, admission clock and budget, then settles every file of
// every snapshot from this goroutine in (lane, idx) order — lane is the
// snapshot's position in snaps, idx the file's position in the snapshot
// — into the table ReviewSnapshotAt reads. It is a no-op without a
// router and on a live router, whose state spans runs by design.
func (c *Client) StartRun(snaps []*source.Snapshot) {
	if c.router == nil || !c.router.replayable {
		return
	}
	c.router.reset()
	run := make([][]delivery, len(snaps))
	for lane, snap := range snaps {
		run[lane] = make([]delivery, len(snap.Files))
		for idx, f := range snap.Files {
			run[lane][idx] = c.router.settle(f.Path, len(f.Bytes))
		}
	}
	c.mu.Lock()
	c.run = run
	c.mu.Unlock()
}

// routed turns a review's delivery into a FileReview: the model's
// answers when a backend delivered, a Degraded record (never an error)
// when none did. The delivery comes from the StartRun table when (lane,
// idx) is in it, and is routed on arrival otherwise.
func (c *Client) routed(f *source.File, lane, idx int) FileReview {
	d, ok := c.settled(lane, idx)
	if !ok {
		d = c.router.deliver(f.Path, len(f.Bytes))
	}
	if d.retries > 0 {
		c.reg.Counter("llm_transport_retries_total").Add(int64(d.retries))
	}
	if d.err != nil {
		rev := c.degraded(f.Path, len(f.Bytes), degradeReason(d.err, d.budgetDenied))
		rev.Retries = d.retries
		return rev
	}
	rev := c.review(f)
	rev.Retries = d.retries
	rev.Backend = d.backend
	return rev
}

// settled returns the delivery StartRun settled for (lane, idx), if the
// slot is in the table.
func (c *Client) settled(lane, idx int) (delivery, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lane < 0 || lane >= len(c.run) || idx < 0 || idx >= len(c.run[lane]) {
		return delivery{}, false
	}
	return c.run[lane][idx], true
}

// degraded builds the review record for a file the backend never
// successfully reviewed. Spent stays zero — a degraded review resends
// nothing and charges nothing, which is what keeps §4.3 cost accounting
// stable under chaos.
func (c *Client) degraded(path string, size int, reason string) FileReview {
	c.reg.Counter("llm_degraded_reviews_total", "reason", reason).Inc()
	return FileReview{File: basename(path), Size: size, Degraded: true, DegradedReason: reason}
}

// degradeReason maps a delivery's terminal error onto the Degraded*
// vocabulary. budgetDenied reports that a retry was refused by the
// shared budget.
func degradeReason(err error, budgetDenied bool) string {
	switch {
	case errors.Is(err, ErrAllBreakersOpen):
		return DegradedBreakerOpen
	// CauseIsClass, not IsClass: the policy wraps the terminal error in
	// an exhausted sentinel, and hinted 429s arrive wrapped too.
	case errmodel.CauseIsClass(err, "MalformedCompletionException"):
		return DegradedMalformed
	case errmodel.CauseIsClass(err, "BackendOutageException"):
		return DegradedOutage
	// A cancellation terminal error means every launched attempt was
	// abandoned (the caller's context died mid-route); calling that
	// "retries-exhausted" would blame a backend nobody waited on.
	case isCancellation(err):
		return DegradedCancelled
	case budgetDenied:
		return DegradedBudget
	default:
		return DegradedRetries
	}
}

// isCancellation reports whether an error is our own context
// cancellation rather than a backend verdict.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// pathSeed derives the per-review jitter seed from the file path, so
// backoff delays are reproducible run to run yet uncorrelated file to
// file.
func pathSeed(path string, seed uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() ^ seed
}
