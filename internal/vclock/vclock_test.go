package vclock

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"wasabi/internal/fault"
	"wasabi/internal/trace"
)

func runCtx() (context.Context, *trace.Run) {
	r := trace.NewRun("t")
	return trace.With(context.Background(), r), r
}

func TestSleepRecordsEventAndAdvances(t *testing.T) {
	ctx, r := runCtx()
	Sleep(ctx, 2*time.Second)
	if r.VNow() != 2*time.Second {
		t.Errorf("VNow = %v", r.VNow())
	}
	ev := r.Events()
	if len(ev) != 1 || ev[0].Kind != trace.KindSleep || ev[0].Duration != 2*time.Second {
		t.Errorf("events = %+v", ev)
	}
	// No oracle reads the stack of a sleep in a run without injections.
	if ev[0].Stack != nil {
		t.Errorf("a run without injections recorded stack %v", ev[0].Stack)
	}
}

func TestSleepCapturesCallerStack(t *testing.T) {
	ctx, r := runCtx()
	logInjection(r)
	want := sleepHelper(ctx)
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %+v", ev)
	}
	if len(want) == 0 || want[0] != "vclock.sleepHelper" || !reflect.DeepEqual(ev[1].Stack, want) {
		t.Errorf("stack = %v, want %v", ev[1].Stack, want)
	}
}

// sleepHelper sleeps one second and returns the stack that sleep should
// record, as trace.Callers names it from the same frame.
func sleepHelper(ctx context.Context) []string {
	Sleep(ctx, time.Second)
	return trace.Callers(0, stackDepth)
}

// injectedRunCtx is runCtx with a fault injector attached, as in every
// injection run of the dynamic workflow.
func injectedRunCtx() (context.Context, *trace.Run) {
	ctx, r := runCtx()
	return fault.With(ctx, fault.NewInjector(nil)), r
}

func logInjection(r *trace.Run) {
	r.Append(trace.Event{
		Kind: trace.KindInjection, Callee: "app.T.work", Caller: "app.T.run",
		Exception: "ConnectException", Count: 1,
	})
}

// TestSleepUnderInjectionRecordsStackFromFirstInjection checks the sleep
// attribution rule: with an injector attached, a sleep before the run's
// first injection — which no oracle reads — records no stack, and a sleep
// after it records its caller's stack.
func TestSleepUnderInjectionRecordsStackFromFirstInjection(t *testing.T) {
	ctx, r := injectedRunCtx()
	sleepHelper(ctx)
	logInjection(r)
	want := sleepHelper(ctx)

	ev := r.Events()
	if len(ev) != 3 || ev[0].Kind != trace.KindSleep || ev[2].Kind != trace.KindSleep {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].Stack != nil {
		t.Errorf("sleep before the first injection recorded stack %v", ev[0].Stack)
	}
	if len(want) == 0 || want[0] != "vclock.sleepHelper" || !reflect.DeepEqual(ev[2].Stack, want) {
		t.Errorf("sleep after the first injection recorded %v, want %v", ev[2].Stack, want)
	}
	if r.VNow() != 2*time.Second {
		t.Errorf("VNow = %v: every sleep advances virtual time", r.VNow())
	}
}

// TestSleepAfterInjectionAllocs guards a post-injection sleep's steady
// state: the recorded stack slice is its only allocation.
func TestSleepAfterInjectionAllocs(t *testing.T) {
	ctx, r := injectedRunCtx()
	logInjection(r)
	sleep := func() { Sleep(ctx, time.Second) }
	sleep() // warm: names the PCs
	if n := testing.AllocsPerRun(100, sleep); n > 1 {
		t.Errorf("%v allocs per sleep, want at most 1 (the stack)", n)
	}
}

func TestSleepZeroAndNegativeIgnored(t *testing.T) {
	ctx, r := runCtx()
	Sleep(ctx, 0)
	Sleep(ctx, -time.Second)
	if r.Len() != 0 || r.VNow() != 0 {
		t.Error("non-positive sleeps must be ignored")
	}
}

func TestSleepWithoutRunIsNoop(t *testing.T) {
	Sleep(context.Background(), time.Hour) // must return immediately
}

func TestElapseAdvancesWithoutEvent(t *testing.T) {
	ctx, r := runCtx()
	Elapse(ctx, 30*time.Second)
	if r.VNow() != 30*time.Second {
		t.Errorf("VNow = %v", r.VNow())
	}
	if r.Len() != 0 {
		t.Error("Elapse must not record a sleep event")
	}
}

func TestNow(t *testing.T) {
	ctx, _ := runCtx()
	Elapse(ctx, time.Minute)
	if Now(ctx) != time.Minute {
		t.Errorf("Now = %v", Now(ctx))
	}
	if Now(context.Background()) != 0 {
		t.Error("Now without run should be 0")
	}
}

func TestBackoffDoubles(t *testing.T) {
	base := time.Second
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second} {
		if got := Backoff(base, i, time.Hour); got != want {
			t.Errorf("Backoff(attempt=%d) = %v, want %v", i, got, want)
		}
	}
}

func TestBackoffCapped(t *testing.T) {
	if got := Backoff(time.Second, 20, 10*time.Second); got != 10*time.Second {
		t.Errorf("Backoff = %v, want cap", got)
	}
}

func TestBackoffHugeAttemptNoOverflow(t *testing.T) {
	if got := Backoff(time.Second, 200, time.Minute); got != time.Minute {
		t.Errorf("Backoff = %v", got)
	}
}

func TestBackoffNegativeAttempt(t *testing.T) {
	if got := Backoff(time.Second, -5, time.Minute); got != time.Second {
		t.Errorf("Backoff = %v, want base", got)
	}
}

func TestBackoffZeroBase(t *testing.T) {
	if got := Backoff(0, 3, time.Minute); got != 0 {
		t.Errorf("Backoff = %v, want 0", got)
	}
}

// Property: backoff is monotonically non-decreasing in attempt and never
// exceeds the cap.
func TestBackoffMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		lo, hi := int(a%40), int(b%40)
		if lo > hi {
			lo, hi = hi, lo
		}
		max := 5 * time.Minute
		x, y := Backoff(100*time.Millisecond, lo, max), Backoff(100*time.Millisecond, hi, max)
		return x <= y && y <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
