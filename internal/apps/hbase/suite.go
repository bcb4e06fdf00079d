package hbase

import (
	"context"

	"wasabi/internal/apps/common"
	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the HBase miniature's existing unit-test suite.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "HB", Name: "HBase", ID: "seed:HB", Tests: []testkit.Test{
		{
			Name: "hbase.TestZKGetData", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.ZK.Put("conf/master", "m1")
				v, err := NewZKWatcher(app).GetData(ctx, "conf/master")
				if err != nil {
					return err
				}
				return testkit.Assertf(v == "m1", "value = %q", v)
			},
		},
		{
			Name: "hbase.TestZKGetDataRestricted", App: "HB",
			RetryLabeled: true,
			// Developers pinned recovery retries to 1 to keep this test
			// snappy; the preparation pass restores the default.
			Overrides: map[string]string{"hbase.zookeeper.recovery.retry": "1"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.ZK.Put("conf/flag", "on")
				v, err := NewZKWatcher(app).GetData(ctx, "conf/flag")
				if err != nil {
					return err
				}
				return testkit.Assertf(v == "on", "value = %q", v)
			},
		},
		{
			Name: "hbase.TestZKDeleteNode", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.ZK.Put("node/tmp", "v")
				z := NewZKWatcher(app)
				if err := z.DeleteNode(ctx, "node/tmp"); err != nil {
					return err
				}
				return testkit.Assertf(!app.ZK.Exists("node/tmp"), "znode survived deletion")
			},
		},
		{
			Name: "hbase.TestZKSyncBarrier", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				return NewZKWatcher(app).SyncEnsemble(ctx)
			},
		},
		{
			Name: "hbase.TestMetaCacheRelocate", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddRegion("r1", "rs2")
				rs, err := NewMetaCache(app).Relocate(ctx, "r1")
				if err != nil {
					return err
				}
				return testkit.Assertf(rs == "rs2", "located on %q", rs)
			},
		},
		{
			Name: "hbase.TestUnassignProcedure", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddRegion("r2", "rs1")
				exec := common.NewProcedureExecutor()
				if err := exec.Run(ctx, NewUnassignProc(app, "r2")); err != nil {
					return err
				}
				st, _ := app.Meta.Get("regionstate/r2")
				return testkit.Assertf(st == "CLOSED", "state = %q", st)
			},
		},
		{
			Name: "hbase.TestTruncateTable", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Meta.Put("rows/t1/a", "1")
				exec := common.NewProcedureExecutor()
				if err := exec.Run(ctx, NewTruncateTableProc(app, "t1")); err != nil {
					return err
				}
				if err := testkit.Assertf(!app.Meta.Exists("rows/t1/a"), "rows not cleared"); err != nil {
					return err
				}
				return testkit.Assertf(len(app.Meta.ListPrefix("layout/t1/")) == 3, "layout incomplete")
			},
		},
		{
			Name: "hbase.TestRpcPutAndGet", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddRegion("r3", "rs1")
				c := NewRSRpcClient(app)
				if _, err := c.Call(ctx, "r3", "put", "k1"); err != nil {
					return err
				}
				v, err := c.Call(ctx, "r3", "get", "k1")
				if err != nil {
					return err
				}
				return testkit.Assertf(v == "v", "get = %q", v)
			},
		},
		{
			Name: "hbase.TestRpcUnassignedRegionFails", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				_, err := NewRSRpcClient(app).Call(ctx, "ghost", "get", "k")
				if err == nil {
					return testkit.Assertf(false, "expected IllegalStateException")
				}
				if errmodel.IsClass(err, "IllegalStateException") {
					return nil
				}
				return err
			},
		},
		{
			Name: "hbase.TestPutRowBatch", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddRegion("r4", "rs3")
				t := NewHTableClient(app)
				// The batch harness tolerates per-row failures; the
				// balancer redistributes and a later batch retries them.
				ok := 0
				for i := 0; i < 50; i++ {
					if err := t.PutRow(ctx, "r4", "row"+string(rune('a'+i%26))); err == nil {
						ok++
					}
				}
				return testkit.Assertf(ok > 0, "no row written")
			},
		},
		{
			Name: "hbase.TestScannerFailsOver", App: "HB",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Cluster.Node("rs1").SetDown(true)
				id, err := NewScannerCallable(app).Open(ctx)
				if err != nil {
					return err
				}
				return testkit.Assertf(id != "", "no scanner opened")
			},
		},
		{
			Name: "hbase.TestRegionFlush", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddRegion("r5", "rs2")
				if err := NewRegionFlusher(app).Flush(ctx, "r5"); err != nil {
					return err
				}
				v, _ := app.Cluster.Node("rs2").Store.Get("flush/r5")
				return testkit.Assertf(v == "done", "flush marker = %q", v)
			},
		},
		{
			Name: "hbase.TestFlushUnknownRegion", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				err := NewRegionFlusher(app).Flush(ctx, "ghost")
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
			Name: "hbase.TestCompactionRuns", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddRegion("r6", "rs1")
				n, err := NewCompactionRunner(app).Compact(ctx, "r6")
				if err != nil {
					return err
				}
				return testkit.Assertf(n == 2, "compacted %d files", n)
			},
		},
		{
			Name: "hbase.TestWALRoll", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewWALRoller(app).Roll(ctx); err != nil {
					return err
				}
				v, _ := app.Meta.Get("wal/segment")
				return testkit.Assertf(v == "rolled", "segment = %q", v)
			},
		},
		{
			Name: "hbase.TestBulkLoadDrain", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				b := NewBulkLoader(app)
				b.Submit("cf1")
				b.Submit("cf2")
				if err := b.Drain(ctx); err != nil {
					return err
				}
				return testkit.Assertf(b.Loaded == 2, "loaded = %d", b.Loaded)
			},
		},
		{
			Name: "hbase.TestLeaseRecovery", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewLeaseRecovery(app).Recover(ctx, "wal-7"); err != nil {
					return err
				}
				v, _ := app.Meta.Get("lease/wal-7")
				return testkit.Assertf(v == "recovered", "lease = %q", v)
			},
		},
		{
			Name: "hbase.TestCanaryCountsHealthy", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddRegion("r7", "rs1")
				app.AddRegion("r8", "rs2")
				app.Cluster.Node("rs2").SetDown(true)
				c := NewCanaryTool(app)
				c.ProbeAll(ctx)
				return testkit.Assertf(c.Healthy == 1, "healthy = %d", c.Healthy)
			},
		},
		{
			Name: "hbase.TestBalancerChoreRounds", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				ch := NewBalancerChore(app)
				ch.RunRounds(ctx, 3)
				return testkit.Assertf(ch.Rounds == 3, "rounds = %d", ch.Rounds)
			},
		},
		{
			Name: "hbase.TestWaitForRegionServers", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				return testkit.Assertf(WaitForRegionServers(ctx, app, 3, 2), "servers never up")
			},
		},
		{
			Name: "hbase.TestTableDescriptorCheck", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				if err := testkit.Assertf(TableDescriptorCheck("cf:604800") == nil, "valid schema rejected"); err != nil {
					return err
				}
				return testkit.Assertf(TableDescriptorCheck("cf") != nil, "malformed schema accepted")
			},
		},
		{
			Name: "hbase.TestLogCleanerRound", App: "HB",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Meta.Put("oldwal/1", "free")
				app.Meta.Put("oldwal/2", "pinned")
				l := NewLogCleaner(app)
				l.CleanRound(ctx)
				if err := testkit.Assertf(l.Deleted == 1, "deleted = %d", l.Deleted); err != nil {
					return err
				}
				return testkit.Assertf(l.Skipped == 1, "skipped = %d", l.Skipped)
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
