package trace

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAppendAssignsSequence(t *testing.T) {
	r := NewRun("t1")
	r.Append(Event{Kind: KindNote, Msg: "a"})
	r.Append(Event{Kind: KindNote, Msg: "b"})
	ev := r.Events()
	if len(ev) != 2 {
		t.Fatalf("len = %d", len(ev))
	}
	if ev[0].Seq != 0 || ev[1].Seq != 1 {
		t.Errorf("sequence numbers = %d, %d", ev[0].Seq, ev[1].Seq)
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	r := NewRun("t")
	r.AdvanceAndRecordSleep(3*time.Second, []string{"hdfs.WebFS.run"})
	r.AdvanceAndRecordSleep(2*time.Second, nil)
	if got := r.VNow(); got != 5*time.Second {
		t.Errorf("VNow = %v, want 5s", got)
	}
	ev := r.Events()
	if ev[0].VTime != 0 {
		t.Errorf("first sleep should start at t=0, got %v", ev[0].VTime)
	}
	if ev[1].VTime != 3*time.Second {
		t.Errorf("second sleep at %v, want 3s", ev[1].VTime)
	}
}

func TestAdvanceDoesNotRecord(t *testing.T) {
	r := NewRun("t")
	r.Advance(time.Minute)
	if r.Len() != 0 {
		t.Error("Advance must not append events")
	}
	if r.VNow() != time.Minute {
		t.Error("Advance must move virtual time")
	}
}

func TestContextRoundTrip(t *testing.T) {
	r := NewRun("t")
	ctx := With(context.Background(), r)
	if From(ctx) != r {
		t.Error("From(With(ctx,r)) != r")
	}
	if From(context.Background()) != nil {
		t.Error("From(empty ctx) should be nil")
	}
}

func TestNoteNoRunIsNoop(t *testing.T) {
	Note(context.Background(), "ignored %d", 1) // must not panic
}

func TestNoteRecords(t *testing.T) {
	r := NewRun("t")
	Note(With(context.Background(), r), "task %d done", 7)
	ev := r.Events()
	if len(ev) != 1 || ev[0].Msg != "task 7 done" || ev[0].Kind != KindNote {
		t.Errorf("events = %+v", ev)
	}
}

// normalizeCases are TestNormalizeFunc's table and FuzzNormalizeFunc's
// seeds.
var normalizeCases = []struct{ in, want string }{
	{"wasabi/internal/apps/hdfs.(*BlockReader).connect", "hdfs.BlockReader.connect"},
	{"wasabi/internal/apps/hbase.UnassignProcedure.Execute", "hbase.UnassignProcedure.Execute"},
	{"main.main", "main.main"},
	{"wasabi/internal/testkit.(*Runner).Run.func1", "testkit.Runner.Run.func1"},
	{"", ""},
}

func TestNormalizeFunc(t *testing.T) {
	for _, c := range normalizeCases {
		if got := NormalizeFunc(c.in); got != c.want {
			t.Errorf("NormalizeFunc(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCallersReturnsThisTest(t *testing.T) {
	stack := Callers(0, 4)
	if len(stack) == 0 {
		t.Fatal("empty stack")
	}
	if stack[0] != "trace.TestCallersReturnsThisTest" {
		t.Errorf("stack[0] = %q", stack[0])
	}
}

func helperCaller() []string { return Callers(0, 4) }

func TestCallersSeesCallerChain(t *testing.T) {
	stack := helperCaller()
	if len(stack) < 2 {
		t.Fatalf("stack = %v", stack)
	}
	if stack[0] != "trace.helperCaller" || stack[1] != "trace.TestCallersSeesCallerChain" {
		t.Errorf("stack = %v", stack)
	}
}

// FuzzNormalizeFunc checks NormalizeFunc on arbitrary input: it never
// panics, it is idempotent, and no pointer-receiver decoration survives.
func FuzzNormalizeFunc(f *testing.F) {
	for _, c := range normalizeCases {
		f.Add(c.in)
	}
	// Removing one "(*" or ")" can join its neighbours into another.
	f.Add("pkg.((**T)).m")
	f.Add("a/b.()*")
	f.Fuzz(func(t *testing.T, fn string) {
		got := NormalizeFunc(fn)
		if again := NormalizeFunc(got); again != got {
			t.Errorf("NormalizeFunc(%q) = %q, but NormalizeFunc(%q) = %q", fn, got, got, again)
		}
		if strings.Contains(got, "(*") || strings.Contains(got, ")") {
			t.Errorf("NormalizeFunc(%q) = %q keeps receiver decoration", fn, got)
		}
	})
}

// referenceCallers is the walk Callers replaced, kept as its reference:
// every call resolves every frame through runtime.CallersFrames and
// NormalizeFunc.
func referenceCallers(skip, max int) []string {
	pcs := make([]uintptr, max+skip+2)
	n := runtime.Callers(skip+2, pcs)
	if n == 0 {
		return nil
	}
	frames := runtime.CallersFrames(pcs[:n])
	var out []string
	for {
		f, more := frames.Next()
		name := NormalizeFunc(f.Function)
		if name != "" {
			out = append(out, name)
		}
		if !more || len(out) >= max {
			break
		}
	}
	return out
}

// bothWalks returns what the memoised and the reference walk see from
// the same frame, for the frames above bothWalks.
//
//go:noinline
func bothWalks() (got, want []string) {
	return Callers(1, 6), referenceCallers(1, 6)
}

func walkDirect() (got, want []string) { return bothWalks() }

func walkClosure() (got, want []string) {
	f := func() (got, want []string) { return bothWalks() }
	return f()
}

type walker struct{ depth int }

func (w *walker) walk() (got, want []string) {
	if w.depth > 0 {
		w.depth--
		return w.walk()
	}
	return bothWalks()
}

// walkInlined is small enough for the compiler to inline into its caller,
// so its frame is a virtual one inside walkViaInlined.
func walkInlined() (got, want []string) { return bothWalks() }

//go:noinline
func walkViaInlined() (got, want []string) { return walkInlined() }

// TestCallersMatchesReferenceWalk checks that the memoised walk names
// exactly the frames the CallersFrames walk names — direct calls,
// closures, pointer receivers and inlined frames — both on first sight of
// each PC (cold memo) and from the memo (warm).
func TestCallersMatchesReferenceWalk(t *testing.T) {
	shapes := []struct {
		name  string
		walk  func() (got, want []string)
		first string
	}{
		{"direct", walkDirect, "trace.walkDirect"},
		{"closure", walkClosure, "trace.walkClosure.func1"},
		{"pointer receiver", (&walker{depth: 2}).walk, "trace.walker.walk"},
		{"inlined", walkViaInlined, "trace.walkInlined"},
	}
	for _, sh := range shapes {
		names.Range(func(pc, _ any) bool { names.Delete(pc); return true })
		for _, phase := range []string{"cold", "warm"} {
			got, want := sh.walk()
			if len(got) == 0 || got[0] != sh.first {
				t.Errorf("%s (%s): Callers = %v, want %q first", sh.name, phase, got, sh.first)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%s): Callers = %v, reference walk = %v", sh.name, phase, got, want)
			}
		}
	}
}

func TestCallerFuncMatchesCallers(t *testing.T) {
	if got := CallerFunc(0); got != "trace.TestCallerFuncMatchesCallers" {
		t.Errorf("CallerFunc(0) = %q", got)
	}
	if got, want := CallerFunc(1), referenceCallers(1, 1); len(want) != 1 || got != want[0] {
		t.Errorf("CallerFunc(1) = %q, reference walk = %v", got, want)
	}
}

func TestEventKindString(t *testing.T) {
	if KindInjection.String() != "inject" || KindSleep.String() != "sleep" {
		t.Error("kind names wrong")
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: after n appends, sequence numbers are exactly 0..n-1 and events
// are returned in order.
func TestSequenceProperty(t *testing.T) {
	f := func(n uint8) bool {
		r := NewRun("p")
		for i := 0; i < int(n%50); i++ {
			r.Append(Event{Kind: KindNote})
		}
		ev := r.Events()
		for i := range ev {
			if ev[i].Seq != i {
				return false
			}
		}
		return len(ev) == int(n%50)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: virtual time equals the sum of all sleeps and advances.
func TestVirtualTimeSumProperty(t *testing.T) {
	f := func(ds []uint16) bool {
		r := NewRun("p")
		var want time.Duration
		for i, d := range ds {
			dur := time.Duration(d) * time.Millisecond
			if i%2 == 0 {
				r.AdvanceAndRecordSleep(dur, nil)
			} else {
				r.Advance(dur)
			}
			want += dur
		}
		return r.VNow() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventsSnapshotIsolation(t *testing.T) {
	r := NewRun("t")
	r.Append(Event{Kind: KindNote, Msg: "a"})
	snap := r.Events()
	r.Append(Event{Kind: KindNote, Msg: "b"})
	if len(snap) != 1 {
		t.Error("snapshot must not grow with later appends")
	}
}

// TestConcurrentAppenders has many goroutines interleave injection,
// sleep and note events on one Run — the shape of an instrumented test
// whose application code is itself concurrent. Sequence numbers must
// come out exactly 0..n-1 (each assigned once, in log order), every
// event must survive, and virtual time must equal the sum of all sleeps,
// whatever the interleaving. make race runs this under the race
// detector.
func TestConcurrentAppenders(t *testing.T) {
	const (
		goroutines = 16
		perG       = 201 // divisible by 3: equal parts inject/sleep/note
	)
	r := NewRun("concurrent")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 3 {
				case 0:
					r.Append(Event{
						Kind: KindInjection, Callee: "app.T.connect",
						Caller: "app.T.retryLoop", Exception: "IOException",
					})
				case 1:
					r.AdvanceAndRecordSleep(time.Millisecond, []string{"app.T.retryLoop"})
				case 2:
					r.Append(Event{Kind: KindNote, Msg: "tick"})
				}
			}
		}(g)
	}
	wg.Wait()

	ev := r.Events()
	if len(ev) != goroutines*perG {
		t.Fatalf("recorded %d events, want %d", len(ev), goroutines*perG)
	}
	kinds := map[EventKind]int{}
	for i, e := range ev {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d: log order and sequence numbers diverged", i, e.Seq)
		}
		kinds[e.Kind]++
	}
	for kind, want := range map[EventKind]int{
		KindInjection: goroutines * perG / 3,
		KindSleep:     goroutines * perG / 3,
		KindNote:      goroutines * perG / 3,
	} {
		if kinds[kind] != want {
			t.Errorf("%v events = %d, want %d", kind, kinds[kind], want)
		}
	}
	if want := time.Duration(goroutines*perG/3) * time.Millisecond; r.VNow() != want {
		t.Errorf("VNow = %v, want %v (sum of all sleeps)", r.VNow(), want)
	}
	// Virtual timestamps never move backwards along the log.
	for i := 1; i < len(ev); i++ {
		if ev[i].VTime < ev[i-1].VTime {
			t.Fatalf("virtual time ran backwards at seq %d: %v -> %v", i, ev[i-1].VTime, ev[i].VTime)
		}
	}
}

// TestLazySleepStacksFollowFirstInjection interleaves lazy sleeps with an
// injection from several goroutines: whatever the interleaving, exactly
// the sleeps logged after the first injection carry a stack. make race
// runs this under the race detector.
func TestLazySleepStacksFollowFirstInjection(t *testing.T) {
	r := NewRun("lazy")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g == 0 && i == 25 {
					r.Append(Event{Kind: KindInjection, Callee: "app.T.work", Caller: "app.T.run"})
				}
				r.AdvanceAndRecordSleepLazily(time.Millisecond, 0, 4)
			}
		}(g)
	}
	wg.Wait()
	injected := false
	for _, e := range r.Events() {
		switch {
		case e.Kind == KindInjection:
			injected = true
		case injected && (len(e.Stack) == 0 || !strings.HasPrefix(e.Stack[0], "trace.TestLazySleepStacksFollowFirstInjection.func")):
			t.Fatalf("sleep %d after the first injection has stack %v", e.Seq, e.Stack)
		case !injected && e.Stack != nil:
			t.Fatalf("sleep %d before the first injection has stack %v", e.Seq, e.Stack)
		}
	}
	if !injected {
		t.Fatal("no injection logged")
	}
}
