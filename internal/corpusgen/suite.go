package corpusgen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"wasabi/internal/apps/meta"
	"wasabi/internal/errmodel"
	"wasabi/internal/fault"
	"wasabi/internal/testkit"
	"wasabi/internal/trace"
)

// Suite materializes the app's unit-test suite: one test per structure,
// backed by an interpreter that executes the StructureSpec's documented
// semantics. The emitted source files are parse-only corpus material for
// the static workflows; the suite is how the dynamic workflow runs the
// same structures. Hooks use fault.HookAt — "weaving by configuration" —
// because interpreted methods have no stack frames for fault.Hook to
// recover, and sleeps are recorded against the coordinator frame so the
// missing-delay oracle attributes them exactly as it would compiled code.
// The suite's ID is the digest of the spec the interpreter executes, so
// a corpus regenerated with the same spec keeps its memoised dynamic
// runs and any spec change forfeits them.
func Suite(app AppSpec) testkit.Suite {
	s := testkit.Suite{App: app.Code, Name: app.Name, ID: specDigest(app)}
	for i, st := range app.Structures {
		st := st
		t := testkit.Test{
			Name:         app.Pkg + ".Test" + st.TypeName,
			App:          app.Code,
			RetryLabeled: st.Keyworded,
			Body: func(ctx context.Context, overrides map[string]string) error {
				return execute(ctx, st)
			},
		}
		if i == 0 {
			// Mirror the seed suites: the app's first test carries a
			// retry-restricting override the §3.1.4 preparation pass
			// must strip before injection runs.
			t.Overrides = map[string]string{
				"gen.cluster.name":  "local",
				"gen.fetch.retries": "1",
			}
		}
		s.Tests = append(s.Tests, t)
	}
	return s
}

// specDigest is the hex sha256 of the spec's JSON encoding, or "" (no
// suite identity) if it does not encode.
func specDigest(app AppSpec) string {
	data, err := json.Marshal(app)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// execute interprets one structure.
func execute(ctx context.Context, st StructureSpec) error {
	switch st.Idiom {
	case IdiomSagaCompensation:
		return runSaga(ctx, st)
	case IdiomStateMachineExc:
		return runStateMachine(ctx, st)
	case IdiomStatusBackoff, IdiomStateMachineCode:
		return runStatusRounds(ctx, st)
	default:
		return runRetryLoop(ctx, st)
	}
}

// sleepAs advances virtual time with a sleep attributed to the
// coordinator frame, matching what vclock.Sleep records in compiled
// corpus code (the delay oracle matches sleeps by coordinator frame).
func sleepAs(ctx context.Context, coordinator string, ms int) {
	if ms <= 0 {
		return
	}
	if r := trace.From(ctx); r != nil {
		r.AdvanceAndRecordSleep(time.Duration(ms)*time.Millisecond, []string{coordinator})
	}
}

// attemptCeiling is a safety bound for nominally unbounded loops: far
// above the cap oracle's threshold, so it never masks a missing-cap bug,
// but it guarantees termination against pathological injector configs.
const attemptCeiling = 100000

// runRetryLoop interprets the loop- and queue-family idioms. When the
// structure is harness-retried, the workload driver re-drives it once
// per pending task and tolerates individual give-ups (§4.3's missing-cap
// false-positive mode).
func runRetryLoop(ctx context.Context, st StructureSpec) error {
	drives := 1
	if st.HarnessRetried && st.Drives > 0 {
		drives = st.Drives
	}
	var last error
	for d := 0; d < drives; d++ {
		last = driveOnce(ctx, st)
		if last != nil && !st.HarnessRetried {
			return giveUp(st, last)
		}
	}
	if st.HarnessRetried {
		// The driver already logged per-task failures; the run as a
		// whole succeeds.
		return nil
	}
	return nil
}

// driveOnce performs one retry-loop execution: attempts until success,
// an aborted exception class, or an exhausted budget.
func driveOnce(ctx context.Context, st StructureSpec) error {
	var last error
	for attempt := 0; st.Cap == 0 || attempt < st.Cap; attempt++ {
		err := fault.HookAt(ctx, st.Coordinator, st.Retried[0])
		if err == nil {
			return nil
		}
		for _, cls := range st.Aborts {
			if errmodel.IsClass(err, cls) {
				return err
			}
		}
		last = err
		sleepAs(ctx, st.Coordinator, st.DelayMS)
		if attempt >= attemptCeiling {
			break
		}
	}
	return last
}

// giveUp propagates the budget-exhausted error, wrapping it for
// WrapsErrors structures (the "different exception" FP source, §4.3).
// The wrapped exception's site is pinned to the coordinator so distinct
// structures group as distinct bugs.
func giveUp(st StructureSpec, err error) error {
	if st.Wrap == "" {
		return err
	}
	return errmodel.NewAt(st.Coordinator, st.Wrap, "giving up after exhausting the retry budget", err)
}

// runSaga interprets saga/compensation structures: run the steps in
// order, compensate the completed prefix on failure, re-run the saga.
// The generated HOW bug manifests on the re-run after a compensation:
// the corrupted ledger surfaces as an IllegalStateException (§2.4 —
// broken retry execution under a single fault).
func runSaga(ctx context.Context, st StructureSpec) error {
	compensations := 0
	var last error
	for attempt := 0; attempt < st.Cap; attempt++ {
		if st.Bug == meta.How && compensations > 0 {
			return errmodel.NewAt(st.Coordinator, st.HowCls, "saga ledger out of sync after compensation", nil)
		}
		last = nil
		for _, step := range st.Retried {
			if err := fault.HookAt(ctx, st.Coordinator, step); err != nil {
				last = err
				break
			}
		}
		if last == nil {
			return nil
		}
		compensations++
		sleepAs(ctx, st.Coordinator, st.DelayMS)
	}
	return last
}

// runStateMachine interprets exception-triggered state machines: a
// failed step is retried in place (state unchanged) until the shared
// attempt budget is spent.
func runStateMachine(ctx context.Context, st StructureSpec) error {
	attempts := 0
	state := 0
	for state < len(st.Retried) {
		err := fault.HookAt(ctx, st.Coordinator, st.Retried[state])
		if err == nil {
			state++
			continue
		}
		attempts++
		if attempts >= st.Cap {
			return err
		}
		sleepAs(ctx, st.Coordinator, st.DelayMS)
	}
	return nil
}

// runStatusRounds interprets error-code structures: they are outside the
// exception-injection scope (§4.2), so the interpreter only simulates
// the polling rounds' virtual-time cost.
func runStatusRounds(ctx context.Context, st StructureSpec) error {
	for round := 0; round < 2; round++ {
		sleepAs(ctx, st.Coordinator, st.DelayMS)
	}
	return nil
}
