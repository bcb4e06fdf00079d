// Package testkit is the unit-test substrate of the corpus: it represents
// the applications' *existing* test suites as data that WASABI can run
// unmodified, run under fault injection, or run in coverage-observation
// mode (§3.1.4).
//
// A corpus unit test is a function that exercises application code and
// returns nil on success or an exception on failure — mirroring a JUnit
// test method that either passes, fails an assertion (AssertionError), or
// crashes with a thrown exception. Panics inside the application are
// recovered and converted to the corresponding Java-style runtime
// exceptions (a real nil dereference becomes NullPointerException), which
// is what the "different exception" oracle inspects.
package testkit

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/fault"
	"wasabi/internal/trace"
)

// Body is a corpus unit-test body. The overrides map carries the test's
// configuration overrides after WASABI's preparation pass has filtered
// them; bodies apply it to the application config they construct.
type Body func(ctx context.Context, overrides map[string]string) error

// Test is one unit test of a corpus application.
type Test struct {
	// Name is the test identifier, e.g. "hdfs.TestWebFSReadRetries".
	Name string
	// App is the application short code ("HD", "HB", ...).
	App string
	// RetryLabeled marks tests the application developers labeled as
	// retry-related (the 0.1%–0.5% of suites from §2.5).
	RetryLabeled bool
	// Overrides are configuration overrides the test sets. Overrides of
	// retry-restricting keys are what §3.1.4's preparation pass removes.
	Overrides map[string]string
	// Body runs the test.
	Body Body
}

// Suite is an application's unit-test suite.
type Suite struct {
	App  string // short code, e.g. "HD"
	Name string // human name, e.g. "HDFS"
	// ID identifies what the tests execute, beyond the code compiled into
	// the running build: "seed:<code>" for a seed suite (its code is the
	// build), the spec digest for an interpreted generated suite. Two
	// suites with one ID must run identically under one build. The
	// dynamic-run cache keys on it; an empty ID is never memoised.
	ID    string
	Tests []Test
}

// Result is the outcome of one executed test.
type Result struct {
	Test Test
	// Err is the exception the test crashed with, nil when it passed.
	Err error
	// Run is the trace recorded during execution.
	Run *trace.Run
	// VDuration is the virtual time the test consumed.
	VDuration time.Duration
}

// Failed reports whether the test crashed.
func (r Result) Failed() bool { return r.Err != nil }

// AssertionError is the exception class used for corpus assertion failures.
const AssertionError = "AssertionError"

// Assertf returns nil when cond holds and an AssertionError otherwise —
// the corpus analogue of JUnit's assertTrue.
func Assertf(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return errmodel.Newf(AssertionError, format, args...)
}

// Run executes a test with the given injector (which may be nil for a
// plain run) and effective overrides. Panics raised by application code
// are converted to exceptions.
func Run(t Test, inj *fault.Injector, overrides map[string]string) Result {
	run := trace.NewRun(t.Name)
	ctx := trace.With(context.Background(), run)
	if inj != nil {
		ctx = fault.With(ctx, inj)
	}
	if overrides == nil {
		overrides = t.Overrides
	}
	err := invoke(ctx, t.Body, overrides)
	return Result{Test: t, Err: err, Run: run, VDuration: run.VNow()}
}

// invoke calls the body, recovering panics into exceptions.
func invoke(ctx context.Context, body Body, overrides map[string]string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			exc := panicToException(p)
			if e, ok := exc.(*errmodel.Exception); ok {
				if site := panicSite(); site != "" {
					// The crash site is the panicking application frame,
					// not wherever the exception value was materialized.
					e.Site = site
				}
			}
			err = exc
		}
	}()
	return body(ctx, overrides)
}

// panicSite walks the in-flight panic stack (still intact inside the
// deferred recovery) and returns the first frame outside this harness and
// the runtime — the crash site used for bug grouping.
func panicSite() string {
	for _, f := range trace.Callers(0, 32) {
		switch {
		case strings.HasPrefix(f, "testkit.invoke"),
			strings.HasPrefix(f, "testkit.panic"),
			strings.HasPrefix(f, "testkit.Run"),
			strings.HasPrefix(f, "runtime."),
			strings.HasPrefix(f, "errmodel."),
			strings.HasPrefix(f, "trace."):
			continue
		}
		return f
	}
	return ""
}

// panicToException maps a recovered panic value to the Java-style
// exception a JVM would have raised for the same defect.
func panicToException(p any) error {
	switch v := p.(type) {
	case *errmodel.Exception:
		return v
	case error:
		msg := v.Error()
		if _, isRuntime := v.(runtime.Error); isRuntime {
			switch {
			case strings.Contains(msg, "nil pointer") || strings.Contains(msg, "nil map"):
				return errmodel.New("NullPointerException", msg)
			case strings.Contains(msg, "index out of range") || strings.Contains(msg, "slice bounds"):
				return errmodel.New("IndexOutOfBoundsException", msg)
			case strings.Contains(msg, "divide by zero"):
				return errmodel.New("ArithmeticException", msg)
			}
			return errmodel.New("RuntimeException", msg)
		}
		return errmodel.New("RuntimeException", msg)
	default:
		return errmodel.Newf("RuntimeException", "panic: %v", v)
	}
}

// RetryRestrictingKey reports whether a configuration key is one whose
// override in a test would restrict retry behaviour: the §3.1.4
// preparation pass removes such overrides so injected faults exercise the
// application's real (default) retry policy.
func RetryRestrictingKey(key string) bool {
	k := strings.ToLower(key)
	for _, marker := range []string{"retry", "retries", "attempts", "backoff", "reattempt"} {
		if strings.Contains(k, marker) {
			return true
		}
	}
	return false
}

// PrepareOverrides implements the preparation pass: it returns the test's
// overrides with retry-restricting keys removed, and the list of keys that
// were stripped.
func PrepareOverrides(t Test) (effective map[string]string, stripped []string) {
	effective = make(map[string]string, len(t.Overrides))
	for k, v := range t.Overrides {
		if RetryRestrictingKey(k) {
			stripped = append(stripped, k)
			continue
		}
		effective[k] = v
	}
	return effective, stripped
}

// Validate performs basic sanity checks on a suite and returns a
// descriptive error for the first problem found. The corpus tests use it
// to guard against duplicate registrations.
func Validate(s Suite) error {
	if s.App == "" || s.Name == "" {
		return fmt.Errorf("suite missing identifiers: %+v", s)
	}
	seen := make(map[string]bool, len(s.Tests))
	for _, t := range s.Tests {
		if t.Name == "" {
			return fmt.Errorf("suite %s contains an unnamed test", s.App)
		}
		if seen[t.Name] {
			return fmt.Errorf("suite %s contains duplicate test %s", s.App, t.Name)
		}
		seen[t.Name] = true
		if t.Body == nil {
			return fmt.Errorf("test %s has no body", t.Name)
		}
		if t.App != s.App {
			return fmt.Errorf("test %s declares app %s inside suite %s", t.Name, t.App, s.App)
		}
	}
	return nil
}
