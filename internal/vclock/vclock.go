// Package vclock provides the virtual time facility used by the WASABI
// corpus applications and evaluation harness.
//
// The paper's missing-delay oracle works by intercepting standard sleep
// APIs (Thread.sleep, TimeUnit.sleep, ...) with AspectJ and logging each
// call with its stack (§3.1.3). In this reproduction, all corpus code
// sleeps through vclock.Sleep, which (a) records the sleep event in the
// run's trace, with a normalized call stack from the run's first fault
// injection on, and (b) advances *virtual* time instead of blocking, so
// that experiments with 100 injected faults and exponential backoff
// complete in milliseconds of wall time while the oracle still observes
// realistic delay/timeout behaviour.
//
// There is deliberately no package-level clock: virtual time lives on the
// per-run trace.Run reached through the context, so every test execution
// owns an independent clock instance. Concurrent runs (the parallel plan
// executor in internal/core) therefore never observe each other's time,
// and a run's timestamps are reproducible regardless of scheduling.
package vclock

import (
	"context"
	"math"
	"time"

	"wasabi/internal/trace"
)

// stackDepth is how many frames of a sleep's caller stack are recorded.
const stackDepth = 8

// Sleep records a sleep of duration d on the run attached to ctx and
// advances that run's virtual clock. Without a run on ctx it is a no-op;
// corpus code therefore never blocks for real.
//
// This is the reproduction's stand-in for Thread.sleep and friends: the
// missing-delay oracle looks for these events between consecutive fault
// injections from the same retry location. That oracle is the only
// reader of a sleep's stack, so the stack is recorded from the run's
// first injection on; a run that logs no injection (one without a fault
// injector) records no stack.
func Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if r := trace.From(ctx); r != nil {
		r.AdvanceAndRecordSleepLazily(d, 1, stackDepth)
	}
}

// Now returns the virtual time of the run attached to ctx, or zero.
func Now(ctx context.Context) time.Duration {
	if r := trace.From(ctx); r != nil {
		return r.VNow()
	}
	return 0
}

// Elapse advances virtual time without recording a sleep event. Corpus code
// uses it to model work taking time (e.g. an RPC round trip), which must
// not be mistaken for a retry delay by the missing-delay oracle.
func Elapse(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	if r := trace.From(ctx); r != nil {
		r.Advance(d)
	}
}

// Backoff computes a capped exponential backoff: base * 2^attempt, never
// exceeding max. attempt counts from 0. It matches the fix pattern of
// HBASE-20492 ("1000 * Math.pow(2, attemptCount)").
func Backoff(base time.Duration, attempt int, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt < 0 {
		attempt = 0
	}
	// Guard against overflow before shifting.
	if attempt > 62 || float64(base)*math.Pow(2, float64(attempt)) > float64(max) {
		return max
	}
	d := base << uint(attempt)
	if d > max || d <= 0 {
		return max
	}
	return d
}
