// Package trace records what happens during an instrumented test run.
//
// Every WASABI dynamic-workflow test run owns a *Run: the fault-injection
// runtime appends injection events, the virtual clock appends sleep events,
// corpus code may append notes, and the test runner appends the final
// outcome. The retry test oracles (internal/oracle) operate purely on this
// record, mirroring the paper's design where oracles post-process test logs
// (§3.1.3).
//
// A Run is goroutine-safe (its event log and virtual clock share one
// mutex) and strictly per-execution: testkit.Run creates a fresh Run for
// every test invocation, which is what lets the parallel plan executor in
// internal/core run independent injection experiments concurrently without
// their traces or clocks interfering.
package trace

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// EventKind classifies trace events.
type EventKind int

const (
	// KindInjection records a fault-injection handler throwing an exception.
	KindInjection EventKind = iota
	// KindInjectionSuppressed records a handler reached after its K
	// threshold was exhausted (the fault has "healed").
	KindInjectionSuppressed
	// KindSleep records a call to a sleep API.
	KindSleep
	// KindCoverage records, in observe mode, that a retry location was
	// reached (used by the test planner's coverage pass).
	KindCoverage
	// KindNote records free-form application events.
	KindNote
)

// String returns a short name for the event kind.
func (k EventKind) String() string {
	switch k {
	case KindInjection:
		return "inject"
	case KindInjectionSuppressed:
		return "inject-suppressed"
	case KindSleep:
		return "sleep"
	case KindCoverage:
		return "coverage"
	case KindNote:
		return "note"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one record in a test-run trace.
type Event struct {
	Seq   int
	Kind  EventKind
	VTime time.Duration // virtual time when the event occurred

	// Injection/coverage fields.
	Callee    string // retried method, e.g. "hdfs.BlockReader.connect"
	Caller    string // coordinator method observed on the stack
	Exception string // exception class thrown (injection only)
	Count     int    // how many times this triplet has thrown so far

	// Sleep fields.
	Duration time.Duration
	Stack    []string // normalized function names, innermost first

	// Note fields.
	Msg string
}

// Run is the trace of a single test execution. It also owns the run's
// virtual clock so that event virtual-timestamps and sleep accounting agree.
type Run struct {
	Test string

	mu       sync.Mutex
	events   []Event
	seq      int
	vnow     time.Duration
	injected bool // a KindInjection event has been logged
}

// NewRun creates an empty trace for the named test.
func NewRun(test string) *Run { return &Run{Test: test} }

// Append adds an event, assigning its sequence number and virtual time.
func (r *Run) Append(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e.Seq = r.seq
	r.seq++
	e.VTime = r.vnow
	r.events = append(r.events, e)
	if e.Kind == KindInjection {
		r.injected = true
	}
}

// AdvanceAndRecordSleep advances virtual time by d and appends a sleep
// event attributed to the given stack.
func (r *Run) AdvanceAndRecordSleep(d time.Duration, stack []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordSleep(d, stack)
}

// AdvanceAndRecordSleepLazily is AdvanceAndRecordSleep with the stack
// taken from the caller's goroutine as Callers(skip, max) would take it.
// A sleep's stack is read only by the missing-delay oracle, and only
// between two injections, so the stack is walked only once the run has
// logged a KindInjection; earlier sleeps, and every sleep of a run that
// logs none, carry no stack. The walk happens under the run's lock, so whether a
// sleep has a stack always agrees with where it lands in the log.
func (r *Run) AdvanceAndRecordSleepLazily(d time.Duration, skip, max int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var stack []string
	if r.injected {
		stack = appendCallers(make([]string, 0, max), skip, max)
	}
	r.recordSleep(d, stack)
}

// recordSleep appends a sleep event and advances virtual time; r.mu must
// be held.
func (r *Run) recordSleep(d time.Duration, stack []string) {
	e := Event{
		Seq:      r.seq,
		Kind:     KindSleep,
		VTime:    r.vnow,
		Duration: d,
		Stack:    stack,
	}
	r.seq++
	r.vnow += d
	r.events = append(r.events, e)
}

// Advance moves virtual time forward without recording a sleep event
// (used for non-sleep time passage such as simulated work).
func (r *Run) Advance(d time.Duration) {
	r.mu.Lock()
	r.vnow += d
	r.mu.Unlock()
}

// VNow returns the current virtual time.
func (r *Run) VNow() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.vnow
}

// Events returns a snapshot of the recorded events in order.
func (r *Run) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded events.
func (r *Run) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

type ctxKey struct{}

// With attaches a run to the context.
func With(ctx context.Context, r *Run) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// From extracts the run attached to ctx, or nil.
func From(ctx context.Context) *Run {
	r, _ := ctx.Value(ctxKey{}).(*Run)
	return r
}

// Note appends a free-form note to the run on ctx, if any.
func Note(ctx context.Context, format string, args ...any) {
	if r := From(ctx); r != nil {
		r.Append(Event{Kind: KindNote, Msg: fmt.Sprintf(format, args...)})
	}
}

// Callers returns up to max normalized function names from the calling
// goroutine's stack, innermost first, skipping skip frames above the caller
// of Callers itself. Names are normalized by NormalizeFunc.
func Callers(skip, max int) []string {
	return appendCallers(make([]string, 0, max), skip, max)
}

// AppendCallers is Callers appending into out, so a caller that keeps out
// on its own stack pays for no allocation.
func AppendCallers(out []string, skip, max int) []string {
	return appendCallers(out, skip, max)
}

// CallerFunc returns the normalized function name of the caller skip
// frames above the caller of CallerFunc (skip 0 = the immediate caller).
func CallerFunc(skip int) string {
	var one [1]string
	if s := appendCallers(one[:0], skip, 1); len(s) > 0 {
		return s[0]
	}
	return ""
}

// appendCallers is the one stack walk behind Callers, AppendCallers,
// CallerFunc and AdvanceAndRecordSleepLazily; skip counts frames above the
// caller of that exported function. It reads one return PC per logical
// frame (runtime.Callers gives inlined calls virtual PCs of their own) and
// names each through funcName, so a steady-state walk is one
// runtime.Callers plus a memo lookup per frame.
func appendCallers(out []string, skip, max int) []string {
	// The walk stops after max frames: every PC runtime.Callers returns in
	// a Go binary belongs to a named function, so no slack is needed for
	// frames without a name.
	var buf [16]uintptr
	pcs := buf[:]
	if max <= len(buf) {
		pcs = buf[:max]
	} else {
		pcs = make([]uintptr, max)
	}
	n := runtime.Callers(skip+3, pcs)
	for _, pc := range pcs[:n] {
		if name := funcName(pc); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// names memoises return PC → normalized function name. A PC from
// runtime.Callers names exactly one logical frame, so the memo is exact,
// and it is bounded by the call sites in the binary. It is the run-time
// analogue of AspectJ resolving a join point once, at weave time.
var names sync.Map // uintptr -> string

// funcName returns the normalized name of the frame at return PC pc,
// resolving it through runtime.CallersFrames only the first time pc is
// seen. For a single PC, CallersFrames' first frame is the innermost
// (possibly inlined) function at that PC — the frame a walk over the whole
// PC slice reports for it.
func funcName(pc uintptr) string {
	if name, ok := names.Load(pc); ok {
		return name.(string)
	}
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	name := NormalizeFunc(f.Function)
	names.Store(pc, name)
	return name
}

// NormalizeFunc converts a runtime function name such as
// "wasabi/internal/apps/hdfs.(*BlockReader).connect" into the corpus
// method-naming convention "hdfs.BlockReader.connect". Functions outside
// the corpus keep "pkg.Symbol" form (last import-path element only).
// Anonymous function suffixes (".func1") are preserved on the parent name.
// The result never contains "/", "(*" or ")", so NormalizeFunc is
// idempotent.
func NormalizeFunc(fn string) string {
	if fn == "" {
		return ""
	}
	// Keep only the last path element: "wasabi/internal/apps/hdfs.(*T).m"
	// -> "hdfs.(*T).m".
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	// Drop pointer-receiver decoration. Closing parentheses go first, and
	// "(*" is removed until none is left, because removing one can join
	// its neighbours into another ("((**" -> "(*").
	fn = strings.ReplaceAll(fn, ")", "")
	for strings.Contains(fn, "(*") {
		fn = strings.ReplaceAll(fn, "(*", "")
	}
	return fn
}
