package yarn

import (
	"context"

	"wasabi/internal/apps/common"
	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the YARN miniature's existing unit-test suite. The AM
// launcher, state store, localizer and tracker registration are NOT
// exercised anywhere — the coverage hole that makes YA's dynamic row the
// thinnest in Table 3.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "YA", Name: "Yarn", ID: "seed:YA", Tests: []testkit.Test{
		{
			Name: "yarn.TestTransitionProcedure", App: "YA",
			RetryLabeled: true,
			Overrides:    map[string]string{"yarn.rm.transition.max.attempts": "2"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				exec := common.NewProcedureExecutor()
				if err := exec.Run(ctx, NewTransitionProc(app, "app-1")); err != nil {
					return err
				}
				v, _ := app.State.Get("appstate/app-1")
				return testkit.Assertf(v == "RUNNING", "state = %q", v)
			},
		},
		{
			Name: "yarn.TestNodeHealthScript", App: "YA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewNodeHealthScript(app).Run(ctx); err != nil {
					return err
				}
				v, _ := app.State.Get("health/last")
				return testkit.Assertf(v == "ok", "health = %q", v)
			},
		},
		{
			Name: "yarn.TestHeartbeatRounds", App: "YA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				h := NewNodeHeartbeatHandler(app)
				// The heartbeat scheduler drives every node each
				// interval and tolerates individual failures.
				delivered := 0
				for round := 0; round < 20; round++ {
					for _, node := range []string{"nm1", "nm2"} {
						if err := h.Handle(ctx, node); err == nil {
							delivered++
						}
					}
				}
				return testkit.Assertf(delivered > 0, "no heartbeat delivered")
			},
		},
		{
			Name: "yarn.TestContainerCleanup", App: "YA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				c := NewContainerCleanup(app)
				c.Submit("c-1")
				c.Submit("c-2")
				if err := c.Drain(ctx); err != nil {
					return err
				}
				return testkit.Assertf(c.Cleaned == 2, "cleaned = %d", c.Cleaned)
			},
		},
		{
			Name: "yarn.TestSchedulerDispatch", App: "YA",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				d := NewSchedulerEventDispatcher(app)
				calls := map[string]int{}
				d.SetStatusSource(func(kind string) string {
					calls[kind]++
					if kind == "NODE_ADDED" && calls[kind] == 1 {
						return "REJECTED_TRANSIENT"
					}
					if kind == "BOGUS" {
						return "REJECTED_INVALID"
					}
					return "OK"
				})
				d.Enqueue("NODE_ADDED")
				d.Enqueue("BOGUS")
				d.Drain(ctx)
				if err := testkit.Assertf(d.Handled == 1, "handled = %d", d.Handled); err != nil {
					return err
				}
				return testkit.Assertf(len(d.Dropped) == 1, "dropped = %v", d.Dropped)
			},
		},
		{
			Name: "yarn.TestRegisterRejectsEmptyNode", App: "YA",
			// Exercises only the validation path of registerOnce via a
			// direct call; the Register retry loop itself stays uncovered.
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				err := NewResourceTrackerClient(app).registerOnce(ctx, "")
				if err == nil {
					return testkit.Assertf(false, "expected IllegalArgumentException")
				}
				if errmodel.IsClass(err, "IllegalArgumentException") {
					return nil
				}
				return err
			},
		},
		{
			Name: "yarn.TestConfigDefaults", App: "YA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				got := app.Config.GetInt("yarn.am.launch.retries", 0)
				return testkit.Assertf(got >= 1, "am launch retries = %d", got)
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
