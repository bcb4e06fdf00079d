package fault

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"wasabi/internal/errmodel"
	"wasabi/internal/trace"
)

// TestHookSteadyStateAllocs guards the hook's steady state. Once the
// frames' PCs have been named, a hook that throws nothing — an observed
// hit in observe mode, an unarmed method in inject mode — allocates
// nothing: one runtime.Callers into a stack buffer and memo lookups.
func TestHookSteadyStateAllocs(t *testing.T) {
	observeCtx, _ := injectCtx(NewObserver([]Location{loc("")}))
	missCtx, _ := injectCtx(NewInjector([]Rule{{
		Loc: Location{Coordinator: "fault.fakeCoordinator", Retried: "fault.unarmed", Exception: "ConnectException"},
		K:   1,
	}}))
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{
		{"observe-mode hit", observeCtx},
		{"inject-mode miss", missCtx},
	} {
		fakeCoordinator(c.ctx, 1) // warm: names the PCs, records first coverage
		if n := testing.AllocsPerRun(100, func() { fakeCoordinator(c.ctx, 1) }); n > 0 {
			t.Errorf("%s: %v allocs per hook, want 0", c.name, n)
		}
	}
}

// TestInjectedSiteIsTheWalkedName pins injectSite to the name a stack walk
// gives the function that builds injected exceptions, which is what
// errmodel.Newf recorded there before the site was given explicitly.
func TestInjectedSiteIsTheWalkedName(t *testing.T) {
	arrive := runtime.FuncForPC(reflect.ValueOf((*Injector).arrive).Pointer()).Name()
	if want := trace.NormalizeFunc(arrive); injectSite != want {
		t.Fatalf("injectSite = %q, stack walk names the builder %q", injectSite, want)
	}
	ctx, _ := injectCtx(NewInjector([]Rule{{
		Loc: Location{Coordinator: "fault.capturingCoordinator", Retried: "fault.fakeRetried", Exception: "ConnectException"},
		K:   1,
	}}))
	var exc *errmodel.Exception
	if !errors.As(capturingCoordinator(ctx), &exc) || exc.Site != injectSite {
		t.Fatalf("injected exception = %#v, want Site %q", exc, injectSite)
	}
}
