package elastic

import (
	"context"
	"strconv"

	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the Elasticsearch miniature's existing unit-test suite.
// The master election and shard recovery loops are never exercised, and
// the error-code machinery is tested only through status stubs — giving
// EL the lowest injectable retry coverage, as in Table 5.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "EL", Name: "ElasticSearch", ID: "seed:EL", Tests: []testkit.Test{
		{
			Name: "elastic.TestTransportSend", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewTransportClient(app).Send(ctx, "es2", "indices:stats"); err != nil {
					return err
				}
				v, _ := app.Cluster.Node("es2").Store.Get("action/last")
				return testkit.Assertf(v == "indices:stats", "action = %q", v)
			},
		},
		{
			Name: "elastic.TestTransportRejectsEmptyAction", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				err := NewTransportClient(app).Send(ctx, "es1", "")
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
			Name: "elastic.TestBulkPipeline", App: "EL",
			RetryLabeled: true,
			Overrides:    map[string]string{"es.bulk.retries": "1"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				b := NewBulkRetrier(app)
				// The pipeline indexes a large batch and tolerates
				// per-document failures (they are re-fed next cycle).
				ok := 0
				for i := 0; i < 40; i++ {
					if err := b.IndexDoc(ctx, "doc-"+strconv.Itoa(i)); err == nil {
						ok++
					}
				}
				return testkit.Assertf(ok > 0, "no document indexed")
			},
		},
		{
			Name: "elastic.TestWatcherReload", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.State.Put("watch/w1", "def")
				n, err := NewWatcherService(app).Reload(ctx)
				if err != nil {
					return err
				}
				return testkit.Assertf(n == 1, "watches = %d", n)
			},
		},
		{
			Name: "elastic.TestPersistResults", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				p := NewResultsPersister(app)
				if err := p.PersistResults(ctx, &AnalyticsJob{ID: "j1"}); err != nil {
					return err
				}
				v, _ := app.State.Get("results/j1")
				return testkit.Assertf(v == "persisted", "results = %q", v)
			},
		},
		{
			Name: "elastic.TestBulkFlushBackpressure", App: "EL",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				b := NewBulkProcessor(app)
				b.SetStatusSource(func(batch, attempt int) int {
					if attempt == 0 {
						return 429
					}
					return 200
				})
				b.Add("d1")
				status := b.Flush(ctx, 0)
				return testkit.Assertf(status == 200, "status = %d", status)
			},
		},
		{
			Name: "elastic.TestSnapshotThrottleFallsBack", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				s := NewSnapshotRunner(app)
				s.SetStatusSource(func(string) string { return "THROTTLED" })
				s.Enqueue("repo1")
				s.Drain(ctx)
				return testkit.Assertf(len(s.Failed) == 1, "failed = %v", s.Failed)
			},
		},
		{
			Name: "elastic.TestShardAllocatorThrottle", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				a := NewShardAllocator(app)
				a.SetStatusSource(func(shard string, round int) string {
					if round == 0 {
						return "THROTTLED"
					}
					return "YES"
				})
				status := a.Allocate(ctx, "s0")
				return testkit.Assertf(status == "YES", "status = %q", status)
			},
		},
		{
			Name: "elastic.TestILMPolicyWaits", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				r := NewILMRunner(app)
				r.SetStatusSource(func(index, step string, tick int) string {
					if step == "shrink" && tick < 3 {
						return "WAIT"
					}
					return "COMPLETE"
				})
				status := r.RunPolicy(ctx, "logs-1")
				return testkit.Assertf(status == "COMPLETE", "status = %q", status)
			},
		},
		{
			Name: "elastic.TestReindexBatches", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				w := NewReindexWorker(app)
				ok := w.Run(ctx, 4)
				if err := testkit.Assertf(ok, "reindex failed"); err != nil {
					return err
				}
				return testkit.Assertf(w.Copied == 4, "copied = %d", w.Copied)
			},
		},
		{
			Name: "elastic.TestParseUpdateRequest", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				req, err := ParseUpdateRequest("index=logs&id=7&retry_on_conflict=3")
				if err != nil {
					return err
				}
				if err := testkit.Assertf(req.RetryOnConflict == 3, "roc = %d", req.RetryOnConflict); err != nil {
					return err
				}
				_, err = ParseUpdateRequest("id=7")
				return testkit.Assertf(err != nil, "missing index accepted")
			},
		},
		{
			Name: "elastic.TestHealthPoller", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.State.Put("cluster/health", "green")
				ok := NewHealthPoller(app).WaitForGreen(ctx, 2)
				return testkit.Assertf(ok, "never green")
			},
		},
		{
			Name: "elastic.TestSettingsValidator", App: "EL",
			Body: func(ctx context.Context, o map[string]string) error {
				var v SettingsValidator
				if err := testkit.Assertf(v.Validate(map[string]string{"index.refresh": "1s"}) == nil, "valid settings rejected"); err != nil {
					return err
				}
				return testkit.Assertf(v.Validate(map[string]string{"index.bad": ""}) != nil, "empty value accepted")
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
