// breaker.go implements the circuit-breaker half of the resilience layer
// (§1's Polly/Hystrix discussion): closed → open → half-open transitions
// driven entirely by virtual time, so the cooldown behaves identically in
// every run and at every worker count.
package resilience

import "time"

// BreakerState is one of the three circuit-breaker states.
type BreakerState int

const (
	// Closed passes every call through and counts consecutive failures.
	Closed BreakerState = iota
	// Open rejects calls until the cooldown elapses.
	Open
	// HalfOpen lets probe calls through; the first recorded outcome
	// decides whether the circuit closes again or re-opens.
	HalfOpen
)

// String returns the conventional lowercase state name.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a three-state circuit breaker. All timing is virtual: callers
// pass the current virtual time (a time.Duration offset, e.g.
// vclock.Now) into Allow and the Record methods, which is what keeps
// chaos experiments deterministic and instantaneous.
//
// Breaker is deliberately NOT goroutine-safe. Shared users must serialize
// access; the LLM router takes its own lock around every breaker call,
// and its replayable discipline settles a whole run from one goroutine
// in corpus order, which pins the order of state transitions to the
// corpus rather than the scheduler.
type Breaker struct {
	threshold int           // consecutive failures that open the circuit
	cooldown  time.Duration // virtual time the circuit stays open

	state       BreakerState
	consecutive int
	openedAt    time.Duration
	probing     bool // a half-open probe is in flight and undecided
	onChange    func(to BreakerState)
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and stays open for the given virtual cooldown.
// threshold < 1 is clamped to 1.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// OnTransition registers a hook invoked with the new state on every
// transition (metrics wiring). Pass nil to clear.
func (b *Breaker) OnTransition(fn func(to BreakerState)) { b.onChange = fn }

// State returns the current state as last transitioned (Allow performs
// the open → half-open move, so poll through Allow when time passes).
func (b *Breaker) State() BreakerState { return b.state }

// Allow reports whether a call may proceed at virtual time now. In the
// open state it returns false until the cooldown has elapsed, at which
// point the breaker moves to half-open and admits exactly one probe:
// until that probe's outcome is recorded, further Allow calls are
// rejected. Without the single-probe latch, two callers racing the same
// cooldown expiry would both be admitted against a backend the breaker
// has only agreed to *test* — exactly the thundering-probe failure mode
// hedged requests make likely.
func (b *Breaker) Allow(now time.Duration) bool {
	switch b.state {
	case Open:
		if now-b.openedAt < b.cooldown {
			return false
		}
		b.transition(HalfOpen)
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// RecordSuccess records a successful call: the failure streak resets and
// a half-open probe closes the circuit.
func (b *Breaker) RecordSuccess() {
	b.consecutive = 0
	b.probing = false
	if b.state != Closed {
		b.transition(Closed)
	}
}

// RecordFailure records a failed call at virtual time now: a half-open
// probe failure re-opens the circuit immediately, and the threshold-th
// consecutive failure opens a closed circuit.
func (b *Breaker) RecordFailure(now time.Duration) {
	b.consecutive++
	b.probing = false
	switch b.state {
	case HalfOpen:
		b.openedAt = now
		b.transition(Open)
	case Closed:
		if b.consecutive >= b.threshold {
			b.openedAt = now
			b.transition(Open)
		}
	}
}

// CancelProbe releases the half-open probe slot without recording an
// outcome. Callers use it when a probe was abandoned rather than
// answered — e.g. a hedged rival won and the probe's context was
// cancelled — since a cancellation says nothing about the backend's
// health, but leaving the latch set would block probing forever.
func (b *Breaker) CancelProbe() { b.probing = false }

func (b *Breaker) transition(to BreakerState) {
	b.state = to
	if b.onChange != nil {
		b.onChange(to)
	}
}
