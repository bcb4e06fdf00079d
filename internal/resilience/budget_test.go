package resilience

import (
	"fmt"
	"testing"
	"time"
)

// TestBudgetArrivalGrantsAndClamps exercises the bucket in arrival mode:
// grants draw down the pool, over-asks are clamped, and negative returns
// consume nothing.
func TestBudgetArrivalGrantsAndClamps(t *testing.T) {
	b := NewBudget(3, 0)
	take := func(want int) int {
		var got int
		b.Claim(func(avail, _ int) int {
			got = avail
			return want
		})
		return got
	}
	if avail := take(2); avail != 3 {
		t.Fatalf("first claim saw %d tokens, want 3", avail)
	}
	if avail := take(-5); avail != 1 {
		t.Fatalf("second claim saw %d tokens, want 1 (negative consumption must not refund)", avail)
	}
	if avail := take(99); avail != 1 {
		t.Fatalf("third claim saw %d tokens, want 1", avail)
	}
	if got := b.Remaining(); got != 0 {
		t.Fatalf("Remaining() = %d after clamped over-ask, want 0", got)
	}
}

// TestBudgetRefill checks the one-token-per-N-settles refill, including
// the capacity cap.
func TestBudgetRefill(t *testing.T) {
	b := NewBudget(2, 2)
	noop := func(int, int) int { return 0 }
	spend := func(int, int) int { return 2 }

	b.Claim(spend) // tokens 0, settled 1
	b.Claim(noop)  // settled 2 → refill to 1
	if got := b.Remaining(); got != 1 {
		t.Fatalf("after refill Remaining() = %d, want 1", got)
	}
	b.Claim(noop)
	b.Claim(noop) // settled 4 → refill to 2 (cap)
	b.Claim(noop)
	b.Claim(noop) // settled 6 → already at capacity, no overfill
	if got := b.Remaining(); got != 2 {
		t.Fatalf("Remaining() = %d, want capacity 2 (refill must not overfill)", got)
	}
}

// TestBudgetReset checks that Reset refills the bucket and restarts the
// settle sequence, so consecutive runs start from the same state.
func TestBudgetReset(t *testing.T) {
	b := NewBudget(3, 0)
	b.Claim(func(int, int) int { return 2 })
	b.Claim(func(int, int) int { return 0 })
	b.Reset()
	var avail, seq int
	b.Claim(func(a, s int) int { avail, seq = a, s; return 0 })
	if avail != 3 || seq != 0 {
		t.Fatalf("first claim after Reset saw avail=%d seq=%d, want 3 and 0", avail, seq)
	}
}

// TestBreakerTransitions drives the closed → open → half-open state
// machine through the transition table on a virtual timeline.
func TestBreakerTransitions(t *testing.T) {
	br := NewBreaker(3, 10*time.Second)
	var seen []string
	br.OnTransition(func(to BreakerState) { seen = append(seen, to.String()) })

	now := time.Duration(0)
	if !br.Allow(now) {
		t.Fatal("closed breaker must allow")
	}
	br.RecordFailure(now)
	br.RecordFailure(now)
	if br.State() != Closed {
		t.Fatalf("state after 2/3 failures = %v, want closed", br.State())
	}
	br.RecordFailure(now)
	if br.State() != Open {
		t.Fatalf("state after 3rd failure = %v, want open", br.State())
	}
	if br.Allow(now + 9*time.Second) {
		t.Fatal("open breaker allowed a call before the cooldown elapsed")
	}
	if !br.Allow(now + 10*time.Second) {
		t.Fatal("breaker did not admit a probe after the cooldown")
	}
	if br.State() != HalfOpen {
		t.Fatalf("state after cooldown = %v, want half-open", br.State())
	}
	// Probe fails → straight back to open, new cooldown from failure time.
	br.RecordFailure(11 * time.Second)
	if br.State() != Open {
		t.Fatalf("state after failed probe = %v, want open", br.State())
	}
	if br.Allow(20 * time.Second) {
		t.Fatal("re-opened breaker must run a full cooldown from the probe failure")
	}
	if !br.Allow(21 * time.Second) {
		t.Fatal("breaker did not admit the second probe")
	}
	br.RecordSuccess()
	if br.State() != Closed {
		t.Fatalf("state after successful probe = %v, want closed", br.State())
	}
	// A lone failure after recovery must not trip the fresh streak.
	br.RecordFailure(22 * time.Second)
	if br.State() != Closed {
		t.Fatal("single failure after recovery re-opened the breaker")
	}

	want := []string{"open", "half-open", "open", "half-open", "closed"}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("transition hook saw %v, want %v", seen, want)
	}
}

// TestBreakerThresholdClamp: threshold < 1 behaves as 1 (first failure
// opens).
func TestBreakerThresholdClamp(t *testing.T) {
	br := NewBreaker(0, time.Second)
	br.RecordFailure(0)
	if br.State() != Open {
		t.Fatalf("state = %v, want open after first failure with clamped threshold", br.State())
	}
}
