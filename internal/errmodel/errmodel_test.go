package errmodel

import (
	"errors"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSetsClassAndMessage(t *testing.T) {
	e := New("ConnectException", "connection refused")
	if e.Class != "ConnectException" {
		t.Errorf("Class = %q, want ConnectException", e.Class)
	}
	if got := e.Error(); got != "ConnectException: connection refused" {
		t.Errorf("Error() = %q", got)
	}
}

func TestNewEmptyMessage(t *testing.T) {
	e := New("TimeoutException", "")
	if got := e.Error(); got != "TimeoutException" {
		t.Errorf("Error() = %q, want bare class name", got)
	}
}

func TestNewfFormatsMessage(t *testing.T) {
	e := Newf("SocketException", "port %d", 8020)
	if e.Msg != "port 8020" {
		t.Errorf("Msg = %q", e.Msg)
	}
}

func TestIsClassExactMatch(t *testing.T) {
	e := New("ConnectException", "x")
	if !IsClass(e, "ConnectException") {
		t.Error("exception should match its own class")
	}
}

func TestIsClassSubclass(t *testing.T) {
	// ConnectException -> IOException -> Exception
	e := New("ConnectException", "x")
	if !IsClass(e, "IOException") {
		t.Error("ConnectException should be an IOException")
	}
	if !IsClass(e, "Exception") {
		t.Error("ConnectException should be an Exception")
	}
}

func TestIsClassRejectsSibling(t *testing.T) {
	e := New("ConnectException", "x")
	if IsClass(e, "RuntimeException") {
		t.Error("ConnectException should not be a RuntimeException")
	}
	if IsClass(e, "AccessControlException") {
		t.Error("superclass should not match subclass")
	}
}

func TestIsClassNonException(t *testing.T) {
	if IsClass(errors.New("plain"), "Exception") {
		t.Error("plain error must not match any class")
	}
}

func TestIsClassDoesNotUnwrap(t *testing.T) {
	inner := New("AccessControlException", "denied")
	outer := Wrap("HadoopException", "rpc failed", inner)
	if IsClass(outer, "AccessControlException") {
		t.Error("IsClass must behave like a catch block: outermost class only")
	}
	if !CauseIsClass(outer, "AccessControlException") {
		t.Error("CauseIsClass must search the wrap chain")
	}
}

// wrapChain lists the classes along err's cause chain, outermost first
// ("" for a link that is not an exception).
func wrapChain(err error) []string {
	var chain []string
	for ; err != nil; err = errors.Unwrap(err) {
		chain = append(chain, ClassOf(err))
	}
	return chain
}

func TestWrapChain(t *testing.T) {
	inner := New("AccessControlException", "denied")
	outer := Wrap("HadoopException", "wrapped", inner)
	chain := wrapChain(outer)
	if len(chain) != 2 || chain[0] != "HadoopException" || chain[1] != "AccessControlException" {
		t.Errorf("cause chain = %v", chain)
	}
}

func TestErrorsIsThroughCauseChain(t *testing.T) {
	inner := New("KeeperRequestTimeoutException", "zk")
	outer := Wrap("ServiceException", "svc", inner)
	if !errors.Is(outer, inner) {
		t.Error("errors.Is should follow Unwrap to the cause")
	}
}

func TestDeclareNewBranch(t *testing.T) {
	Declare("CorruptBlockException", "IOException")
	e := New("CorruptBlockException", "bad block")
	if !IsClass(e, "IOException") {
		t.Error("declared subclass relation not honored")
	}
}

func TestUnknownClassDefaultsToException(t *testing.T) {
	e := New("TotallyNovelException", "x")
	if !IsClass(e, "Exception") {
		t.Error("unknown classes must default to subclasses of Exception")
	}
}

func TestClassOf(t *testing.T) {
	if got := ClassOf(New("EOFException", "")); got != "EOFException" {
		t.Errorf("ClassOf = %q", got)
	}
	if got := ClassOf(errors.New("x")); got != "" {
		t.Errorf("ClassOf(plain) = %q, want empty", got)
	}
}

// registered lists the hierarchy's classes, sorted.
func registered() []string {
	defaultHierarchy.mu.RLock()
	defer defaultHierarchy.mu.RUnlock()
	out := make([]string, 0, len(defaultHierarchy.parent))
	for c := range defaultHierarchy.parent {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Property: isSubclass is reflexive, which IsClass relies on for an
// exact match.
func TestIsSubclassReflexiveProperty(t *testing.T) {
	cs := registered()
	f := func(i uint8) bool {
		c := cs[int(i)%len(cs)]
		return defaultHierarchy.isSubclass(c, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every registered class is a subclass of the root.
func TestEverythingDescendsFromException(t *testing.T) {
	for _, c := range registered() {
		if !defaultHierarchy.isSubclass(c, "Exception") {
			t.Errorf("%s does not descend from Exception", c)
		}
	}
}

// Property: wrap preserves the cause and extends the chain by exactly one,
// so CauseIsClass reaches every layer.
func TestWrapChainLengthProperty(t *testing.T) {
	f := func(depth uint8) bool {
		n := int(depth%6) + 1
		err := error(New("EOFException", "leaf"))
		for i := 1; i < n; i++ {
			err = Wrap("ServiceException", "layer", err)
		}
		return len(wrapChain(err)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWrapChainStopsAtPlainError: a plain error is kept as the cause and
// ends the chain.
func TestWrapChainStopsAtPlainError(t *testing.T) {
	plain := errors.New("plain failure")
	e := Wrap("ServiceException", "svc", plain)
	if chain := wrapChain(e); len(chain) != 2 || chain[1] != "" {
		t.Fatalf("chain = %v, want the exception then the plain error", chain)
	}
	if errors.Unwrap(e) != plain {
		t.Error("the plain cause was not kept")
	}
}
