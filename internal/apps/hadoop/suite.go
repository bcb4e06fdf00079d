package hadoop

import (
	"context"
	"strconv"

	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the Hadoop Common miniature's existing unit-test suite.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "HA", Name: "Hadoop", ID: "seed:HA", Tests: []testkit.Test{
		{
			Name: "hadoop.TestIPCCall", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				out, err := NewIPCClient(app).Call(ctx, "nn1", "getStatus")
				if err != nil {
					return err
				}
				return testkit.Assertf(out == "getStatus@nn1", "out = %q", out)
			},
		},
		{
			Name: "hadoop.TestIPCCallRejectsEmptyMethod", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				_, err := NewIPCClient(app).Call(ctx, "nn1", "")
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
			Name: "hadoop.TestSetupConnection", App: "HA",
			RetryLabeled: true,
			// Developers capped connect retries to keep this test fast.
			Overrides: map[string]string{"ipc.client.connect.max.retries": "2"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				return NewIPCClient(app).SetupConnection(ctx, "nn1")
			},
		},
		{
			Name: "hadoop.TestNameserviceFailover", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Cluster.Node("nn1").SetDown(true)
				out, err := NewNameserviceFailover(app).Call(ctx, "renewLease")
				if err != nil {
					return err
				}
				return testkit.Assertf(out == "renewLease@nn2", "out = %q", out)
			},
		},
		{
			Name: "hadoop.TestRPCProxyManyRequests", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				p := NewRPCProxy(app)
				// The request harness tolerates individual failures; the
				// upper layer re-issues dropped requests later.
				ok := 0
				for id := 0; id < 40; id++ {
					if err := p.Invoke(ctx, id); err == nil {
						ok++
					}
				}
				return testkit.Assertf(ok > 0, "no request succeeded")
			},
		},
		{
			Name: "hadoop.TestShellCopy", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Store.Put("file/a.txt", "hello")
				if err := NewFSShell(app).CopyWithRetry(ctx, "a.txt", "b.txt"); err != nil {
					return err
				}
				v, _ := app.Store.Get("file/b.txt")
				return testkit.Assertf(v == "hello", "copy = %q", v)
			},
		},
		{
			Name: "hadoop.TestShellCopyMissingSource", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				err := NewFSShell(app).CopyWithRetry(ctx, "ghost", "b")
				if err == nil {
					return testkit.Assertf(false, "expected FileNotFoundException")
				}
				if errmodel.IsClass(err, "FileNotFoundException") {
					return nil
				}
				return err
			},
		},
		{
			Name: "hadoop.TestTokenRenewal", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				NewTokenRenewer(app).RenewLoop(ctx, "tok-1")
				v, _ := app.Store.Get("token/tok-1")
				return testkit.Assertf(v == "renewed", "token = %q", v)
			},
		},
		{
			Name: "hadoop.TestServiceLaunch", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewServiceLauncher(app).LaunchLoop(ctx, "historyserver"); err != nil {
					return err
				}
				v, _ := app.Store.Get("service/historyserver")
				return testkit.Assertf(v == "up", "service = %q", v)
			},
		},
		{
			Name: "hadoop.TestConfigPushAllNodes", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				p := NewConfigPusher(app)
				p.Submit("nn1")
				p.Submit("worker1")
				if err := p.Drain(ctx); err != nil {
					return err
				}
				return testkit.Assertf(p.Pushed == 2, "pushed = %d", p.Pushed)
			},
		},
		{
			Name: "hadoop.TestKMSDecrypt", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				plain, err := NewKMSClient(app).Decrypt(ctx, 7)
				if err != nil {
					return err
				}
				return testkit.Assertf(plain == "plain-"+strconv.Itoa(7), "plain = %q", plain)
			},
		},
		{
			Name: "hadoop.TestDiskChecker", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Store.Put("disk/d2", "bad")
				d := NewDiskChecker(app)
				d.CheckAll(ctx, []string{"d1", "d2", "d3"})
				return testkit.Assertf(len(d.Bad) == 1 && d.Bad[0] == "d2", "bad = %v", d.Bad)
			},
		},
		{
			Name: "hadoop.TestParseClientOptions", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				opts, err := ParseClientOptions("retries=7,retryDelay=2s")
				if err != nil {
					return err
				}
				if err := testkit.Assertf(opts.MaxRetries == 7, "retries = %d", opts.MaxRetries); err != nil {
					return err
				}
				_, err = ParseClientOptions("bogus")
				return testkit.Assertf(err != nil, "malformed options accepted")
			},
		},
		{
			Name: "hadoop.TestRetryPolicyDefinitions", App: "HA",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				p := RetryUpToMaximumCountWithFixedSleep(3, 0)
				calls := 0
				err := p.Do(ctx, func(context.Context) error {
					calls++
					if calls < 3 {
						return errmodel.New("ConnectException", "transient")
					}
					return nil
				})
				if err != nil {
					return err
				}
				return testkit.Assertf(calls == 3, "calls = %d", calls)
			},
		},
		{
			Name: "hadoop.TestSafemodePoll", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				return testkit.Assertf(WaitForSafemodeExit(ctx, app, 2), "safemode never cleared")
			},
		},
		{
			Name: "hadoop.TestMetricsPublisher", App: "HA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				m := NewMetricsPublisher(app)
				m.PublishRounds(ctx, 3)
				return testkit.Assertf(m.Published == 3, "published = %d", m.Published)
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
