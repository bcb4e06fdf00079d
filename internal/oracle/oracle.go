// Package oracle implements WASABI's three retry-specific,
// application-agnostic test oracles (§3.1.3): "missing cap",
// "missing delay", and "different exception". They operate purely on the
// trace recorded during an instrumented test run plus the run's outcome.
package oracle

import (
	"fmt"
	"strings"
	"time"

	"wasabi/internal/errmodel"
	"wasabi/internal/fault"
	"wasabi/internal/obs"
	"wasabi/internal/testkit"
	"wasabi/internal/trace"
)

// Kind classifies a report.
type Kind string

const (
	// MissingCap flags unbounded retry: an injection handler threw the
	// cap-threshold number of times, or the (virtual) run exceeded the
	// timeout.
	MissingCap Kind = "missing-cap"
	// MissingDelay flags back-to-back retry attempts with no sleep issued
	// by the coordinator in between.
	MissingDelay Kind = "missing-delay"
	// How flags a run that crashed with an exception different from the
	// injected one — evidence of broken retry execution (§2.4).
	How Kind = "how"
)

// Report is one oracle finding for one test run.
type Report struct {
	Kind Kind
	App  string
	Test string
	// Coordinator/Retried identify the retry structure (cap/delay) or
	// the injection location active when the crash occurred (how).
	Coordinator string
	Retried     string
	// Exception is the injected trigger (cap/delay) or the observed crash
	// class (how).
	Exception string
	// GroupKey identifies the distinct bug this report belongs to: retry
	// structure for WHEN bugs, crash class+site for HOW bugs (§4.1).
	GroupKey string
	// Details is a human-readable explanation.
	Details string
}

// Options tunes the oracles.
type Options struct {
	// CapThreshold is the number of injections that signals unbounded
	// retry. The paper uses 100 ("safely exceeds all application
	// configured thresholds", which are typically <= 20).
	CapThreshold int
	// VirtualTimeout is the run-duration limit (15 minutes in the paper),
	// measured in virtual time here.
	VirtualTimeout time.Duration
	// Metrics, when set, receives the per-oracle verdict distribution
	// (oracle_reports_total{oracle=…}). Reports are a deterministic function of the trace, so the counters are
	// identical at every worker count.
	Metrics *obs.Registry
}

// DefaultOptions mirrors the paper.
func DefaultOptions() Options {
	return Options{CapThreshold: 100, VirtualTimeout: 15 * time.Minute}
}

// Evaluate applies all three oracles to one test result. rules are the
// injections that were armed for the run.
func Evaluate(app string, res testkit.Result, rules []fault.Rule, opts Options) []Report {
	if opts.CapThreshold == 0 {
		metrics := opts.Metrics
		opts = DefaultOptions()
		opts.Metrics = metrics
	}
	var out []Report
	out = append(out, missingCap(app, res, rules, opts)...)
	out = append(out, missingDelay(app, res)...)
	out = append(out, differentException(app, res, rules)...)
	for _, r := range out {
		opts.Metrics.Counter("oracle_reports_total", "oracle", string(r.Kind)).Inc()
	}
	return out
}

// missingCap reports locations whose injections reached the threshold, or
// a run that exceeded the virtual timeout.
func missingCap(app string, res testkit.Result, rules []fault.Rule, opts Options) []Report {
	counts := make(map[fault.Location]int)
	for _, e := range res.Run.Events() {
		if e.Kind == trace.KindInjection {
			loc := fault.Location{Coordinator: e.Caller, Retried: e.Callee, Exception: e.Exception}
			if e.Count > counts[loc] {
				counts[loc] = e.Count
			}
		}
	}
	var out []Report
	for loc, n := range counts {
		if n >= opts.CapThreshold {
			out = append(out, Report{
				Kind: MissingCap, App: app, Test: res.Test.Name,
				Coordinator: loc.Coordinator, Retried: loc.Retried, Exception: loc.Exception,
				GroupKey: "cap|" + loc.Coordinator,
				Details:  fmt.Sprintf("%d consecutive injections at %s absorbed by retry in %s", n, loc.Retried, loc.Coordinator),
			})
		}
	}
	if len(out) == 0 && res.VDuration > opts.VirtualTimeout && len(rules) > 0 {
		loc := rules[0].Loc
		out = append(out, Report{
			Kind: MissingCap, App: app, Test: res.Test.Name,
			Coordinator: loc.Coordinator, Retried: loc.Retried, Exception: loc.Exception,
			GroupKey: "cap|" + loc.Coordinator,
			Details:  fmt.Sprintf("run exceeded virtual timeout (%v)", res.VDuration),
		})
	}
	return out
}

// missingDelay reports retry locations with at least two consecutive
// injections and no coordinator-issued sleep between any adjacent pair.
func missingDelay(app string, res testkit.Result) []Report {
	events := res.Run.Events()
	type pair struct{ coordinator, retried string }
	injSeqs := make(map[pair][]int)
	for _, e := range events {
		if e.Kind == trace.KindInjection {
			p := pair{e.Caller, e.Callee}
			injSeqs[p] = append(injSeqs[p], e.Seq)
		}
	}
	var out []Report
	for p, seqs := range injSeqs {
		if len(seqs) < 2 {
			continue
		}
		delayed := false
		for i := 1; i < len(seqs) && !delayed; i++ {
			if sleepBetween(events, seqs[i-1], seqs[i], p.coordinator) {
				delayed = true
			}
		}
		if !delayed {
			out = append(out, Report{
				Kind: MissingDelay, App: app, Test: res.Test.Name,
				Coordinator: p.coordinator, Retried: p.retried,
				GroupKey: "delay|" + p.coordinator,
				Details:  fmt.Sprintf("%d retry attempts at %s with no sleep issued by %s", len(seqs), p.retried, p.coordinator),
			})
		}
	}
	return out
}

// sleepBetween reports whether a sleep attributed to the coordinator
// occurs between the two event sequence numbers. Attribution matches the
// coordinator frame exactly or through its closures ("coordinator.funcN").
func sleepBetween(events []trace.Event, lo, hi int, coordinator string) bool {
	for _, e := range events {
		if e.Seq <= lo || e.Seq >= hi || e.Kind != trace.KindSleep {
			continue
		}
		for _, f := range e.Stack {
			if f == coordinator || strings.HasPrefix(f, coordinator+".func") {
				return true
			}
		}
	}
	return false
}

// differentException implements the HOW oracle: a crash with an exception
// other than the injected one is suspicious; a crash that merely re-throws
// the injected exception is correct give-up behaviour; assertion failures
// belong to the test's own oracle and are ignored here.
func differentException(app string, res testkit.Result, rules []fault.Rule) []Report {
	if res.Err == nil {
		return nil
	}
	exc, ok := res.Err.(*errmodel.Exception)
	if !ok {
		return []Report{{
			Kind: How, App: app, Test: res.Test.Name,
			Exception: "<non-exception>",
			GroupKey:  "how|plain|" + res.Err.Error(),
			Details:   "test crashed with a non-exception error: " + res.Err.Error(),
		}}
	}
	if exc.Class == testkit.AssertionError {
		return nil
	}
	// A crash with the same exception CLASS as the injected trigger is
	// the application correctly giving up after its retries — whether it
	// re-threw our exception object or constructed a fresh one of the
	// same type (§3.1.3). Only a *different* class is suspicious.
	for _, r := range rules {
		if r.Loc.Exception == exc.Class {
			return nil
		}
	}
	loc := fault.Location{}
	if len(rules) > 0 {
		loc = rules[0].Loc
	}
	return []Report{{
		Kind: How, App: app, Test: res.Test.Name,
		Coordinator: loc.Coordinator, Retried: loc.Retried,
		Exception: exc.Class,
		GroupKey:  "how|" + exc.Class + "@" + exc.Site,
		Details: fmt.Sprintf("injected %s at %s but test crashed with %s (site %s)",
			loc.Exception, loc.Retried, exc.Class, exc.Site),
	}}
}

// ByCoordinator groups reports by their coordinator — the shape corpus
// verification (internal/corpusgen) consumes when matching oracle
// witnesses against ground-truth structures. Reports without a
// coordinator (plain-error HOW reports) group under "".
func ByCoordinator(reports []Report) map[string][]Report {
	out := make(map[string][]Report)
	for _, r := range reports {
		out[r.Coordinator] = append(out[r.Coordinator], r)
	}
	return out
}

// Dedup collapses reports with the same group key, keeping the first.
func Dedup(reports []Report) []Report {
	seen := make(map[string]bool)
	var out []Report
	for _, r := range reports {
		key := string(r.Kind) + "|" + r.App + "|" + r.GroupKey
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}
