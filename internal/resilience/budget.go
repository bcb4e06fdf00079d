// budget.go implements a retry *budget*: a token bucket shared by every
// concurrent consumer of one backend, so a worker pool cannot amplify a
// backend brownout into a retry storm (the resilience-framework practice
// the paper's §1 discussion of Polly/Hystrix points at — retries are a
// global resource, not a per-call right).
//
// Claims settle in arrival order. A caller that needs grants to be
// reproducible (the LLM router's replayable discipline) makes the
// arrival order canonical itself, by settling every claim of a run from
// one goroutine in a fixed order; the bucket needs no ordering of its
// own.
package resilience

import "sync"

// Budget is a shared retry token bucket. Construct with NewBudget; the
// zero value is unusable.
type Budget struct {
	mu sync.Mutex

	capacity    int
	tokens      int
	refillEvery int // one token returns every refillEvery settled claims
	settled     int
}

// NewBudget returns a full bucket. capacity < 0 is clamped to 0 (a
// bucket that never grants); refillEvery <= 0 disables refill (a strict
// budget for the whole run).
func NewBudget(capacity, refillEvery int) *Budget {
	if capacity < 0 {
		capacity = 0
	}
	return &Budget{capacity: capacity, tokens: capacity, refillEvery: refillEvery}
}

// Reset refills the bucket and restarts the settle sequence, so a new
// run starts from the same state as a fresh budget.
func (b *Budget) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = b.capacity
	b.settled = 0
}

// Claim settles one claim on arrival: it runs settle with the number of
// tokens available and the claim's settle sequence number (0-based
// position in settlement order since construction or the last Reset).
// settle returns how many tokens it consumes (clamped to [0, avail]); it
// runs under the budget lock, so it must be fast and must not call back
// into the budget. Use the callback to couple other shared admission
// state (the LLM router reads and updates its circuit breakers there) to
// the same order.
func (b *Budget) Claim(settle func(avail, seq int) int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	consumed := settle(b.tokens, b.settled)
	if consumed < 0 {
		consumed = 0
	}
	if consumed > b.tokens {
		consumed = b.tokens
	}
	b.tokens -= consumed
	b.settled++
	if b.refillEvery > 0 && b.settled%b.refillEvery == 0 && b.tokens < b.capacity {
		b.tokens++
	}
}

// Remaining returns the tokens currently in the bucket (racy by nature —
// for tests and reporting).
func (b *Budget) Remaining() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
