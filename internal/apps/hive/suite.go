package hive

import (
	"context"

	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the Hive miniature's existing unit-test suite.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "HI", Name: "Hive", ID: "seed:HI", Tests: []testkit.Test{
		{
			Name: "hive.TestMetastoreConnect", App: "HI",
			RetryLabeled: true,
			Overrides:    map[string]string{"hive.metastore.connect.retries": "1"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				m := NewMetastoreClient(app)
				if err := m.Connect(ctx, "thrift://ms1:9083"); err != nil {
					return err
				}
				return testkit.Assertf(m.connected, "not connected")
			},
		},
		{
			Name: "hive.TestMetastoreConnectBadURI", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				err := NewMetastoreClient(app).Connect(ctx, "")
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
			Name: "hive.TestAlterTable", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewMetastoreClient(app).AlterTable(ctx, "t1", "add col x int"); err != nil {
					return err
				}
				v, _ := app.Warehouse.Get("table/t1/schema")
				return testkit.Assertf(v == "add col x int", "schema = %q", v)
			},
		},
		{
			Name: "hive.TestExecuteStatement", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				out, err := NewHS2Client(app).ExecuteStatement(ctx, "select 1")
				if err != nil {
					return err
				}
				return testkit.Assertf(out == "rows:1", "out = %q", out)
			},
		},
		{
			Name: "hive.TestAcquireLock", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewZKLockManager(app).AcquireLock(ctx, "t2"); err != nil {
					return err
				}
				v, _ := app.Warehouse.Get("lock/t2")
				return testkit.Assertf(v == "held", "lock = %q", v)
			},
		},
		{
			Name: "hive.TestTaskQueueExecutes", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				p := NewTaskProcessor(app)
				p.Submit(&TezTask{ID: "q1"})
				p.Submit(&TezTask{ID: "q2"})
				if err := p.Drain(ctx); err != nil {
					return err
				}
				return testkit.Assertf(p.Executed == 2, "executed = %d", p.Executed)
			},
		},
		{
			Name: "hive.TestSessionAcquire", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				id, err := NewSessionPool(app).Acquire(ctx)
				if err != nil {
					return err
				}
				return testkit.Assertf(id == "session-1", "session = %q", id)
			},
		},
		{
			Name: "hive.TestStatsPublish", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewStatsPublisher(app).Publish(ctx, "t3"); err != nil {
					return err
				}
				v, _ := app.Warehouse.Get("stats/t3")
				return testkit.Assertf(v == "published", "stats = %q", v)
			},
		},
		{
			Name: "hive.TestPartitionPlanning", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				p := NewPartitionPruner(app)
				// Planning walks every partition and tolerates failures;
				// missing descriptors degrade the plan, not the query.
				fetched := 0
				for i := 0; i < 40; i++ {
					part := "p" + string(rune('a'+i%26))
					if _, err := p.FetchPartition(ctx, part); err == nil {
						fetched++
					}
				}
				return testkit.Assertf(fetched > 0, "no partition fetched")
			},
		},
		{
			Name: "hive.TestHookRunner", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewHookRunner(app).RunHook(ctx, "pre-exec"); err != nil {
					return err
				}
				v, _ := app.Warehouse.Get("hook/pre-exec")
				return testkit.Assertf(v == "ran", "hook = %q", v)
			},
		},
		{
			Name: "hive.TestSubmitDAGResubmitsOnBusyEngine", App: "HI",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				t := NewTezSubmitter(app)
				t.SetStatusSource(func(dag string, attempt int) string {
					if attempt < 2 {
						return "QUEUE_FULL"
					}
					return "ACCEPTED"
				})
				status := t.SubmitDAG(ctx, "dag-1")
				return testkit.Assertf(status == "ACCEPTED", "status = %q", status)
			},
		},
		{
			Name: "hive.TestSubmitDAGInvalidIsFinal", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				t := NewTezSubmitter(app)
				calls := 0
				t.SetStatusSource(func(string, int) string {
					calls++
					return "INVALID_DAG"
				})
				status := t.SubmitDAG(ctx, "dag-2")
				if err := testkit.Assertf(status == "INVALID_DAG", "status = %q", status); err != nil {
					return err
				}
				return testkit.Assertf(calls == 1, "invalid dag resubmitted %d times", calls)
			},
		},
		{
			Name: "hive.TestLlapFallsBackAfterRequeues", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				l := NewLlapScheduler(app)
				l.SetStatusSource(func(string) string { return "NO_SLOTS" })
				l.Enqueue("f-1")
				l.Drain(ctx)
				return testkit.Assertf(len(l.FellBack) == 1, "fellback = %v", l.FellBack)
			},
		},
		{
			Name: "hive.TestCompactionBusyThenDone", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				c := NewCompactionInitiator(app)
				c.SetStatusSource(func(table string, round int) string {
					if round == 0 {
						return "WORKERS_BUSY"
					}
					return "DONE"
				})
				status := c.RunRound(ctx, "t4")
				return testkit.Assertf(status == "DONE", "status = %q", status)
			},
		},
		{
			Name: "hive.TestReplLoaderPartialPass", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				r := NewReplLoader(app)
				r.SetStatusSource(func(dump string, pass int) string {
					if pass == 0 {
						return "PARTIAL"
					}
					return "LOADED"
				})
				status := r.LoadDump(ctx, "dump-1")
				return testkit.Assertf(status == "LOADED", "status = %q", status)
			},
		},
		{
			Name: "hive.TestDescribeWarehouse", App: "HI",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Warehouse.Put("table/t9/schema", "x")
				out := DescribeWarehouse(app)
				return testkit.Assertf(len(out) > 0, "empty description")
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
