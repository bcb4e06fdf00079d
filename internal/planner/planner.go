// Package planner implements WASABI's test preparation and fault-injection
// planning (§3.1.4): run the whole suite once in observation mode to learn
// which tests reach which retry locations, then build a plan in which every
// coverable retry location appears exactly once, spread over as many
// distinct unit tests as possible.
package planner

import (
	"sort"

	"wasabi/internal/fault"
	"wasabi/internal/testkit"
	"wasabi/internal/trace"
)

// LocPair is a retry location at (coordinator, retried-method) granularity;
// trigger exceptions are expanded later, when runs are generated.
type LocPair struct {
	Coordinator string
	Retried     string
}

// Coverage records which tests reach which retry locations.
type Coverage struct {
	// Order is the suite's test order.
	Order []string
	// TestLocs maps a test to the location pairs it covers, in first-hit
	// order.
	TestLocs map[string][]LocPair
	// Prepared maps a test to its effective overrides after the
	// configuration-restoration pass.
	Prepared map[string]map[string]string
	// Stripped counts retry-restricting overrides removed during
	// preparation.
	Stripped int
}

// Covered returns the set of all covered location pairs.
func (c Coverage) Covered() map[LocPair]bool {
	out := make(map[LocPair]bool)
	for _, locs := range c.TestLocs {
		for _, l := range locs {
			out[l] = true
		}
	}
	return out
}

// CoveringTests returns how many tests cover at least one retry location.
func (c Coverage) CoveringTests() int {
	n := 0
	for _, locs := range c.TestLocs {
		if len(locs) > 0 {
			n++
		}
	}
	return n
}

// Collect runs every test once in observation mode against the identified
// retry locations and records coverage. This is the pass that dominates
// planning cost in the paper (18%–32% of total run time).
func Collect(suite testkit.Suite, locs []fault.Location) Coverage {
	cov := Coverage{
		TestLocs: make(map[string][]LocPair, len(suite.Tests)),
		Prepared: make(map[string]map[string]string, len(suite.Tests)),
	}
	// The observer watches retried methods; interesting coordinators are
	// filtered afterwards so that coverage reflects identified locations
	// only.
	interesting := make(map[LocPair]bool, len(locs))
	for _, l := range locs {
		interesting[LocPair{Coordinator: l.Coordinator, Retried: l.Retried}] = true
	}
	for _, t := range suite.Tests {
		eff, stripped := testkit.PrepareOverrides(t)
		cov.Stripped += len(stripped)
		cov.Prepared[t.Name] = eff
		cov.Order = append(cov.Order, t.Name)

		obs := fault.NewObserver(locs)
		res := testkit.Run(t, obs, eff)
		// First-hit order comes from the run's coverage events.
		for _, e := range res.Run.Events() {
			if e.Kind != trace.KindCoverage {
				continue
			}
			p := LocPair{Coordinator: e.Caller, Retried: e.Callee}
			if interesting[p] {
				cov.TestLocs[t.Name] = append(cov.TestLocs[t.Name], p)
			}
		}
	}
	return cov
}

// Entry pairs one unit test with one retry location to inject at.
type Entry struct {
	Test string
	Loc  LocPair
}

// BuildPlan implements the paper's round-robin planning: iterate through
// the tests repeatedly; on each pass a test contributes its first
// not-yet-planned location, until every coverable location is planned.
func BuildPlan(cov Coverage) []Entry {
	planned := make(map[LocPair]bool)
	var plan []Entry
	remaining := len(cov.Covered())
	for remaining > 0 {
		progress := false
		for _, test := range cov.Order {
			for _, loc := range cov.TestLocs[test] {
				if planned[loc] {
					continue
				}
				planned[loc] = true
				plan = append(plan, Entry{Test: test, Loc: loc})
				remaining--
				progress = true
				break // one location per test per pass
			}
		}
		if !progress {
			break
		}
	}
	return plan
}

// Triggers maps each retry-location pair to its trigger exceptions,
// sorted. Build it once per location list with IndexTriggers and look
// pairs up in it; the package-level helpers below rebuild it per call.
type Triggers map[LocPair][]string

// IndexTriggers groups the locations' trigger exceptions by pair.
func IndexTriggers(locs []fault.Location) Triggers {
	set := make(map[LocPair]map[string]bool)
	for _, l := range locs {
		p := LocPair{Coordinator: l.Coordinator, Retried: l.Retried}
		if set[p] == nil {
			set[p] = make(map[string]bool)
		}
		set[p][l.Exception] = true
	}
	out := make(Triggers, len(set))
	for p, m := range set {
		for e := range m {
			out[p] = append(out[p], e)
		}
		sort.Strings(out[p])
	}
	return out
}

// NaiveRuns counts the fault-injection runs a plan-free strategy would
// need: every test × every location it covers × every trigger exception ×
// both K settings (§3.1.4's "naive testing plan").
func (t Triggers) NaiveRuns(cov Coverage) int {
	n := 0
	for _, pairs := range cov.TestLocs {
		for _, p := range pairs {
			n += 2 * len(t[p])
		}
	}
	return n
}

// PlannedRuns counts the runs the plan generates: every plan entry ×
// trigger exceptions × both K settings.
func (t Triggers) PlannedRuns(plan []Entry) int {
	n := 0
	for _, e := range plan {
		n += 2 * len(t[e.Loc])
	}
	return n
}

// NaiveRuns is IndexTriggers(locs).NaiveRuns(cov).
func NaiveRuns(cov Coverage, locs []fault.Location) int {
	return IndexTriggers(locs).NaiveRuns(cov)
}

// PlannedRuns is IndexTriggers(locs).PlannedRuns(plan).
func PlannedRuns(plan []Entry, locs []fault.Location) int {
	return IndexTriggers(locs).PlannedRuns(plan)
}

// Exceptions returns the trigger exceptions identified for a location
// pair, sorted. It indexes every location per call; callers looking up
// many pairs should index once with IndexTriggers.
func Exceptions(locs []fault.Location, p LocPair) []string {
	return IndexTriggers(locs)[p]
}
