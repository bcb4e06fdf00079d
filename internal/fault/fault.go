// Package fault is the fault-injection runtime of WASABI's dynamic
// workflow — the reproduction's analogue of the paper's AspectJ weaving
// (§3.1.2).
//
// Corpus methods that can fail call Hook at entry ("weaving by
// convention"). Hook recovers both the callee (the retried method) and its
// caller (the coordinator) from the runtime stack, so injection is keyed on
// the same (coordinator, retried method, exception) triplets as the paper's
// pointcuts. A hook either:
//
//   - in observe mode, records that the retry location was reached (the
//     coverage pass the test planner depends on, §3.1.4);
//   - in inject mode, throws the planned exception if the triplet has
//     thrown fewer than K times, and logs the injection; after K throws the
//     fault "heals" and application code proceeds, mirroring Listing 5.
//
// Every test execution owns a fresh Injector attached to its context, and
// an Injector's internal maps are mutex-protected, so concurrent test runs
// (the parallel plan executor in internal/core) and concurrent goroutines
// within one instrumented test are both safe — no injection state is
// shared between runs.
package fault

import (
	"context"
	"fmt"
	"sync"

	"wasabi/internal/errmodel"
	"wasabi/internal/obs"
	"wasabi/internal/trace"
)

// Location identifies a retry location: the call of a retried method from
// a coordinator method, together with the trigger exception class thrown
// there. Names use the corpus convention "app.Type.method".
type Location struct {
	Coordinator string
	Retried     string
	Exception   string
}

// Mode selects the injector behaviour.
type Mode int

const (
	// Observe records coverage of watched retried methods without
	// injecting faults.
	Observe Mode = iota
	// Inject throws exceptions according to the configured rules.
	Inject
)

// Rule arms one injection: throw Location.Exception at Location up to K
// times.
type Rule struct {
	Loc Location
	K   int
}

// Injector is the per-test-run injection state. A fresh Injector is
// attached to the context of every instrumented test execution.
type Injector struct {
	mode Mode
	// reg, when set, receives the fault_injections_total /
	// fault_injections_suppressed_total counters per exception class.
	// Injections are a deterministic function of the plan, so these
	// counters are identical at every worker count.
	reg *obs.Registry

	mu    sync.Mutex
	rules map[string][]*armedRule // retried method -> armed rules
	watch map[string]bool         // observe mode: retried methods to track
	seen  map[Location]bool       // observe mode: coverage observed
	count map[Location]int        // inject mode: throws so far per triplet
	hits  map[Location]int        // inject mode: total hook arrivals per triplet
}

type armedRule struct {
	rule Rule
}

// NewObserver returns an Injector in observe mode that records coverage of
// the given locations' retried methods.
func NewObserver(locs []Location) *Injector {
	in := &Injector{
		mode:  Observe,
		watch: make(map[string]bool, len(locs)),
		seen:  make(map[Location]bool),
	}
	for _, l := range locs {
		in.watch[l.Retried] = true
	}
	return in
}

// NewInjector returns an Injector in inject mode armed with the given
// rules.
func NewInjector(rules []Rule) *Injector {
	in := &Injector{
		mode:  Inject,
		rules: make(map[string][]*armedRule),
		count: make(map[Location]int),
		hits:  make(map[Location]int),
	}
	for _, r := range rules {
		r := r
		in.rules[r.Loc.Retried] = append(in.rules[r.Loc.Retried], &armedRule{rule: r})
	}
	return in
}

// Instrument attaches a metrics registry to the injector (nil is fine)
// and returns the injector for chaining.
func (in *Injector) Instrument(reg *obs.Registry) *Injector {
	in.reg = reg
	return in
}

// Covered returns the locations observed during an observe-mode run. The
// caller recorded is the innermost enclosing function at the hook, which by
// construction is the coordinator containing the call site.
func (in *Injector) Covered() []Location {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Location, 0, len(in.seen))
	for l := range in.seen {
		out = append(out, l)
	}
	return out
}

// Throws returns how many times the given triplet threw during this run.
func (in *Injector) Throws(loc Location) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.count[loc]
}

type ctxKey struct{}

// With attaches an injector to the context.
func With(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, ctxKey{}, in)
}

// From extracts the injector attached to ctx, or nil.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// callerWindow is how many stack frames above the retried method are
// searched for the coordinator. Retried methods are sometimes invoked
// through small wrappers or closures (queue processors, state-machine
// executors), which adds intermediate frames, just as AspectJ pointcuts
// see intermediate synthetic frames.
const callerWindow = 5

// Hook is the woven entry point. Corpus methods call it first thing:
//
//	func (r *BlockReader) connect(ctx context.Context) error {
//	    if err := fault.Hook(ctx); err != nil {
//	        return err
//	    }
//	    ...
//	}
//
// The returned error, when non-nil, is an *errmodel.Exception with
// Injected=true of the class the active rule prescribes.
func Hook(ctx context.Context) error {
	in := From(ctx)
	if in == nil {
		return nil
	}
	// One walk names the retried method (frame 0, our caller) and the
	// coordinator window above it (frames 1.., innermost first). Hits
	// dominate — an injection run calls its armed method until K heals —
	// so splitting off a callee-only walk would only add a second one.
	var frames [callerWindow + 1]string
	stack := trace.AppendCallers(frames[:0], 1, len(frames))
	if len(stack) == 0 {
		return nil
	}
	return in.arrive(ctx, stack[0], stack[1:])
}

// HookAt is the explicit-name variant of Hook — "weaving by
// configuration" rather than by convention. Generated corpora
// (internal/corpusgen) are interpreted rather than compiled, so their
// retried methods have no real stack frames to recover; the interpreter
// instead declares the (coordinator, retried) pair it is executing.
// Semantics are otherwise identical to Hook: observe mode records
// coverage, inject mode throws per the armed rules.
func HookAt(ctx context.Context, coordinator, retried string) error {
	in := From(ctx)
	if in == nil {
		return nil
	}
	return in.arrive(ctx, retried, []string{coordinator})
}

// injectSite is the Site of every injected exception: the function that
// builds it, as a stack walk would name it.
const injectSite = "fault.Injector.arrive"

// arrive is the shared hook body: callee is the retried method, callers
// the candidate coordinator frames (innermost first).
func (in *Injector) arrive(ctx context.Context, callee string, callers []string) error {
	switch in.mode {
	case Observe:
		in.mu.Lock()
		if in.watch[callee] && len(callers) > 0 {
			loc := Location{Coordinator: callers[0], Retried: callee}
			first := !in.seen[loc]
			in.seen[loc] = true
			in.mu.Unlock()
			if first {
				if r := trace.From(ctx); r != nil {
					r.Append(trace.Event{
						Kind:   trace.KindCoverage,
						Callee: callee,
						Caller: callers[0],
					})
				}
			}
			return nil
		}
		in.mu.Unlock()
		return nil

	case Inject:
		in.mu.Lock()
		rules := in.rules[callee]
		if len(rules) == 0 {
			in.mu.Unlock()
			return nil
		}
		var exhausted *Location
		for _, ar := range rules {
			if !stackMatches(callers, ar.rule.Loc.Coordinator) {
				continue
			}
			loc := ar.rule.Loc
			in.hits[loc]++
			if in.count[loc] >= ar.rule.K {
				// This rule has healed; remember it but give other
				// armed rules at the same location a chance.
				exhausted = &ar.rule.Loc
				continue
			}
			in.count[loc]++
			n := in.count[loc]
			in.mu.Unlock()
			in.reg.Counter("fault_injections_total", "exception", loc.Exception).Inc()
			if r := trace.From(ctx); r != nil {
				r.Append(trace.Event{
					Kind:      trace.KindInjection,
					Callee:    callee,
					Caller:    loc.Coordinator,
					Exception: loc.Exception,
					Count:     n,
				})
			}
			exc := errmodel.NewAt(injectSite, loc.Exception,
				fmt.Sprintf("injected at %s invoked from %s (throw %d)", callee, loc.Coordinator, n), nil)
			exc.Injected = true
			return exc
		}
		in.mu.Unlock()
		if exhausted != nil {
			in.reg.Counter("fault_injections_suppressed_total", "exception", exhausted.Exception).Inc()
			if r := trace.From(ctx); r != nil {
				r.Append(trace.Event{
					Kind:      trace.KindInjectionSuppressed,
					Callee:    callee,
					Caller:    exhausted.Coordinator,
					Exception: exhausted.Exception,
				})
			}
		}
		return nil
	}
	return nil
}

// stackMatches reports whether coordinator appears in the caller frames.
func stackMatches(callers []string, coordinator string) bool {
	for _, f := range callers {
		if f == coordinator {
			return true
		}
	}
	return false
}
