package oracle

import (
	"context"
	"strings"
	"testing"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/fault"
	"wasabi/internal/testkit"
	"wasabi/internal/trace"
	"wasabi/internal/vclock"
)

func loc() fault.Location {
	return fault.Location{Coordinator: "app.C.run", Retried: "app.C.work", Exception: "ConnectException"}
}

func resultWith(run *trace.Run, err error) testkit.Result {
	return testkit.Result{
		Test:      testkit.Test{Name: "app.TestX", App: "HD"},
		Err:       err,
		Run:       run,
		VDuration: run.VNow(),
	}
}

func inject(run *trace.Run, l fault.Location, count int) {
	run.Append(trace.Event{
		Kind: trace.KindInjection, Callee: l.Retried, Caller: l.Coordinator,
		Exception: l.Exception, Count: count,
	})
}

func sleepFrom(run *trace.Run, coordinator string) {
	run.AdvanceAndRecordSleep(time.Second, []string{"vclock.Sleep", coordinator, "app.TestX"})
}

func TestMissingCapAtThreshold(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	for i := 1; i <= 100; i++ {
		inject(run, l, i)
		sleepFrom(run, l.Coordinator)
	}
	reports := Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions())
	var cap_ int
	for _, r := range reports {
		if r.Kind == MissingCap {
			cap_++
			if r.Coordinator != l.Coordinator {
				t.Errorf("coordinator = %q", r.Coordinator)
			}
		}
		if r.Kind == MissingDelay {
			t.Error("delay present; should not report missing delay")
		}
	}
	if cap_ != 1 {
		t.Errorf("missing-cap reports = %d, want 1", cap_)
	}
}

func TestNoCapReportBelowThreshold(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	for i := 1; i <= 5; i++ {
		inject(run, l, i)
		sleepFrom(run, l.Coordinator)
	}
	for _, r := range Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions()) {
		if r.Kind == MissingCap {
			t.Errorf("unexpected cap report: %+v", r)
		}
	}
}

func TestMissingCapOnVirtualTimeout(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	run.Advance(16 * time.Minute)
	reports := Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions())
	found := false
	for _, r := range reports {
		if r.Kind == MissingCap && strings.Contains(r.Details, "timeout") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected timeout-based cap report, got %+v", reports)
	}
}

func TestMissingDelayNoSleeps(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	inject(run, l, 2)
	inject(run, l, 3)
	reports := Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions())
	found := false
	for _, r := range reports {
		if r.Kind == MissingDelay {
			found = true
		}
	}
	if !found {
		t.Error("expected missing-delay report")
	}
}

func TestNoDelayReportForSingleInjection(t *testing.T) {
	run := trace.NewRun("t")
	inject(run, loc(), 1)
	for _, r := range Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: loc(), K: 1}}, DefaultOptions()) {
		if r.Kind == MissingDelay {
			t.Error("one injection cannot establish missing delay")
		}
	}
}

func TestDelaySatisfiedByCoordinatorSleep(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	sleepFrom(run, l.Coordinator)
	inject(run, l, 2)
	for _, r := range Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions()) {
		if r.Kind == MissingDelay {
			t.Errorf("sleep between attempts should satisfy the oracle: %+v", r)
		}
	}
}

func TestDelayFromOtherMethodDoesNotCount(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	sleepFrom(run, "app.Other.method") // someone else slept
	inject(run, l, 2)
	found := false
	for _, r := range Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions()) {
		if r.Kind == MissingDelay {
			found = true
		}
	}
	if !found {
		t.Error("sleep from an unrelated method must not mask missing delay")
	}
}

func TestDelayFromCoordinatorClosureCounts(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	sleepFrom(run, l.Coordinator+".func1")
	inject(run, l, 2)
	for _, r := range Evaluate("HD", resultWith(run, nil), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions()) {
		if r.Kind == MissingDelay {
			t.Error("closure sleep should attribute to the coordinator")
		}
	}
}

func TestHowRethrownInjectedFiltered(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	exc := errmodel.New("ConnectException", "injected")
	exc.Injected = true
	for _, r := range Evaluate("HD", resultWith(run, exc), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions()) {
		if r.Kind == How {
			t.Errorf("re-thrown injected exception must be filtered: %+v", r)
		}
	}
}

func TestHowDifferentExceptionReported(t *testing.T) {
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	npe := errmodel.New("NullPointerException", "stats nil")
	reports := Evaluate("HD", resultWith(run, npe), []fault.Rule{{Loc: l, K: 1}}, DefaultOptions())
	found := false
	for _, r := range reports {
		if r.Kind == How && r.Exception == "NullPointerException" {
			found = true
			if !strings.Contains(r.GroupKey, "NullPointerException") {
				t.Errorf("group key should carry the crash class: %q", r.GroupKey)
			}
		}
	}
	if !found {
		t.Errorf("expected HOW report, got %+v", reports)
	}
}

func TestHowWrappedInjectedIsReported(t *testing.T) {
	// The §4.3 FP mode: the app wraps the injected exception; the oracle
	// sees a different outermost class and reports it.
	run := trace.NewRun("t")
	l := loc()
	inject(run, l, 1)
	inner := errmodel.New("ConnectException", "injected")
	inner.Injected = true
	wrapped := errmodel.Wrap("HadoopException", "wrapped", inner)
	found := false
	for _, r := range Evaluate("HD", resultWith(run, wrapped), []fault.Rule{{Loc: l, K: 100}}, DefaultOptions()) {
		if r.Kind == How && r.Exception == "HadoopException" {
			found = true
		}
	}
	if !found {
		t.Error("wrapped injected exception should be (falsely) reported, as in the paper")
	}
}

func TestHowAssertionErrorIgnored(t *testing.T) {
	run := trace.NewRun("t")
	inject(run, loc(), 1)
	ae := errmodel.New(testkit.AssertionError, "expected 3 got 2")
	for _, r := range Evaluate("HD", resultWith(run, ae), []fault.Rule{{Loc: loc(), K: 1}}, DefaultOptions()) {
		if r.Kind == How {
			t.Error("assertion failures belong to the test's own oracle")
		}
	}
}

func TestPassingRunYieldsNothing(t *testing.T) {
	run := trace.NewRun("t")
	if got := Evaluate("HD", resultWith(run, nil), nil, DefaultOptions()); len(got) != 0 {
		t.Errorf("reports = %+v", got)
	}
}

func TestDedupCollapsesGroups(t *testing.T) {
	reports := []Report{
		{Kind: MissingCap, App: "HD", GroupKey: "cap|a"},
		{Kind: MissingCap, App: "HD", GroupKey: "cap|a"},
		{Kind: MissingCap, App: "HB", GroupKey: "cap|a"},
		{Kind: MissingDelay, App: "HD", GroupKey: "delay|a"},
	}
	if got := len(Dedup(reports)); got != 3 {
		t.Errorf("dedup = %d, want 3 (same app+kind+group collapses)", got)
	}
}

// The sleep-attribution pair below runs real retry loops through
// fault.Hook and vclock.Sleep, so the stacks the missing-delay oracle reads
// are the ones an injection run records.

// attemptWork is the retried method of both loops.
func attemptWork(ctx context.Context) error { return fault.Hook(ctx) }

// sleepFirstCoordinator sleeps once before its first attempt, then retries
// without sleeping: its only delay is not between two attempts.
func sleepFirstCoordinator(ctx context.Context) error {
	vclock.Sleep(ctx, time.Second)
	for {
		if err := attemptWork(ctx); err == nil {
			return nil
		}
	}
}

// backoffCoordinator sleeps between retries.
func backoffCoordinator(ctx context.Context) error {
	for {
		if err := attemptWork(ctx); err == nil {
			return nil
		}
		vclock.Sleep(ctx, time.Second)
	}
}

func runLoop(coordinator string, body func(context.Context) error) []Report {
	rules := []fault.Rule{{
		Loc: fault.Location{Coordinator: coordinator, Retried: "oracle.attemptWork", Exception: "ConnectException"},
		K:   3,
	}}
	test := testkit.Test{Name: "app.TestLoop", App: "HD", Body: func(ctx context.Context, _ map[string]string) error {
		return body(ctx)
	}}
	return Evaluate("HD", testkit.Run(test, fault.NewInjector(rules), nil), rules, DefaultOptions())
}

func TestSleepBeforeFirstAttemptIsMissingDelay(t *testing.T) {
	found := false
	for _, r := range runLoop("oracle.sleepFirstCoordinator", sleepFirstCoordinator) {
		if r.Kind == MissingDelay && r.Coordinator == "oracle.sleepFirstCoordinator" {
			found = true
		}
	}
	if !found {
		t.Error("a sleep before the first attempt must not mask the missing delay between retries")
	}
}

func TestSleepBetweenRetriesIsNotMissingDelay(t *testing.T) {
	reports := runLoop("oracle.backoffCoordinator", backoffCoordinator)
	for _, r := range reports {
		if r.Kind == MissingDelay {
			t.Errorf("sleep between retries reported as missing delay: %+v", r)
		}
	}
}
