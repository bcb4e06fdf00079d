package hdfs

import (
	"context"

	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the HDFS miniature's existing unit-test suite: the tests
// its developers would have written, unaware of WASABI. Some cover retry
// code (directly or deep in a call chain), some do not, and a couple
// restrict retry configuration — the landscape §2.5 and §3.1.4 describe.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "HD", Name: "HDFS", ID: "seed:HD", Tests: []testkit.Test{
		{
			Name: "hdfs.TestWebFSFetchReturnsBody", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Meta.Put("path/data/a", "payload-a")
				body, err := NewWebFS(app).Fetch(ctx, "/data/a")
				if err != nil {
					return err
				}
				return testkit.Assertf(body == "payload-a", "body = %q", body)
			},
		},
		{
			Name: "hdfs.TestWebFSFetchMissingPath", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				_, err := NewWebFS(app).Fetch(ctx, "/nope")
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
			Name: "hdfs.TestWebFSUploadChunked", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				w := NewWebFS(app)
				if err := w.UploadChunked(ctx, "/up/f1", "abcdefghij"); err != nil {
					return err
				}
				done, _ := app.Meta.Get("upload/up/f1/complete")
				return testkit.Assertf(done == "true", "upload incomplete")
			},
		},
		{
			Name: "hdfs.TestReadBlockFromReplica", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddBlock("b1", "block-data", "dn1", "dn2")
				payload, err := NewInputStream(app).ReadBlock(ctx, "b1")
				if err != nil {
					return err
				}
				return testkit.Assertf(payload == "block-data", "payload = %q", payload)
			},
		},
		{
			Name: "hdfs.TestReadWithFailoverSkipsDownNode", App: "HD",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddBlock("b2", "failover-data", "dn1", "dn2", "dn3")
				app.Cluster.Node("dn1").SetDown(true)
				payload, err := NewInputStream(app).ReadWithFailover(ctx, "b2")
				if err != nil {
					return err
				}
				return testkit.Assertf(payload == "failover-data", "payload = %q", payload)
			},
		},
		{
			Name: "hdfs.TestSetupPipelineFindsLiveNodes", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				d := NewDataStreamer(app)
				if err := d.SetupPipeline(ctx); err != nil {
					return err
				}
				return testkit.Assertf(len(d.pipeline) == 3, "pipeline = %v", d.pipeline)
			},
		},
		{
			Name: "hdfs.TestWritePacketGroupAcksAll", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				d := NewDataStreamer(app)
				if err := d.WritePacketGroup(ctx, 3); err != nil {
					return err
				}
				return testkit.Assertf(d.acked == 3, "acked = %d", d.acked)
			},
		},
		{
			Name: "hdfs.TestMoverMovesBlockToTier", App: "HD",
			RetryLabeled: true,
			// The developers capped mover retries low to keep the test
			// fast — exactly the restriction §3.1.4's preparation pass
			// removes.
			Overrides: map[string]string{"dfs.mover.retry.max.attempts": "1"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddBlock("b3", "cold-data", "dn2")
				if err := NewMover(app).MoveBlock(ctx, "b3", "ARCHIVE"); err != nil {
					return err
				}
				tier, _ := app.Cluster.Node("dn2").Store.Get("tier/b3")
				return testkit.Assertf(tier == "ARCHIVE", "tier = %q", tier)
			},
		},
		{
			Name: "hdfs.TestBalancerMovesQueuedBlocks", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddBlock("b4", "hot", "dn1")
				app.AddBlock("b5", "hot2", "dn1")
				b := NewBalancer(app)
				b.Submit("b4", "dn3")
				b.Submit("b5", "dn3")
				if err := b.DrainQueue(ctx); err != nil {
					return err
				}
				v, ok := app.Cluster.Node("dn3").Store.Get("block/b4")
				return testkit.Assertf(ok && v == "hot", "b4 on dn3 = %q (%v)", v, ok)
			},
		},
		{
			Name: "hdfs.TestEditLogTailerCatchesUp", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Meta.Put("edits/1", "mkdir /a")
				app.Meta.Put("edits/2", "mkdir /b")
				applied, err := NewEditLogTailer(app).CatchUp(ctx)
				if err != nil {
					return err
				}
				return testkit.Assertf(applied == 2, "applied = %d", applied)
			},
		},
		{
			Name: "hdfs.TestCheckpointerUploadsImageSeries", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				c := NewCheckpointer(app)
				// The harness tolerates individual image failures: the
				// scheduler will retry the whole series later anyway.
				uploaded := 0
				for txid := 0; txid < 40; txid++ {
					if err := c.UploadImage(ctx, txid); err == nil {
						uploaded++
					}
				}
				return testkit.Assertf(uploaded > 0, "no image uploaded")
			},
		},
		{
			Name: "hdfs.TestNamenodeRPCMkdirs", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				rpc := NewNamenodeRPC(app)
				if _, err := rpc.Call(ctx, "mkdirs", "/warehouse"); err != nil {
					return err
				}
				info, err := rpc.Call(ctx, "getFileInfo", "/warehouse")
				if err != nil {
					return err
				}
				return testkit.Assertf(info == "dir", "info = %q", info)
			},
		},
		{
			Name: "hdfs.TestReplicationMonitorRetriesTimeouts", App: "HD",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				m := NewReplicationMonitor(app)
				calls := map[string]int{}
				m.SetStatusSource(func(block string) string {
					calls[block]++
					if block == "bt" && calls[block] <= 2 {
						return "TIMEOUT"
					}
					if block == "bc" {
						return "CORRUPT"
					}
					return "OK"
				})
				m.Enqueue("bt")
				m.Enqueue("bc")
				repaired := m.ProcessQueue(ctx)
				if err := testkit.Assertf(repaired == 1, "repaired = %d", repaired); err != nil {
					return err
				}
				return testkit.Assertf(len(m.Dropped) == 1 && m.Dropped[0] == "bc", "dropped = %v", m.Dropped)
			},
		},
		{
			Name: "hdfs.TestHeartbeatRoundsCountLiveNodes", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Cluster.Node("dn2").SetDown(true)
				h := NewHeartbeatManager(app)
				h.RunRounds(ctx, 4)
				return testkit.Assertf(h.Sent == 8, "sent = %d", h.Sent)
			},
		},
		{
			Name: "hdfs.TestMetricsPollerSeesBlocks", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddBlock("b6", "x", "dn1")
				ok := NewMetricsPoller(app).WaitForBlocks(ctx, 1, 3)
				return testkit.Assertf(ok, "poller never saw the block")
			},
		},
		{
			Name: "hdfs.TestBlockScannerFlagsDownReplicas", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.AddBlock("b7", "x", "dn1", "dn2")
				app.Cluster.Node("dn2").SetDown(true)
				s := NewBlockScanner(app)
				s.ScanAll(ctx)
				if err := testkit.Assertf(s.Scanned == 2, "scanned = %d", s.Scanned); err != nil {
					return err
				}
				return testkit.Assertf(len(s.Corrupted) == 1, "corrupted = %v", s.Corrupted)
			},
		},
		{
			Name: "hdfs.TestPathValidatorRejectsBadPaths", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				var v PathValidator
				if err := testkit.Assertf(v.Validate("/a/b") == nil, "valid path rejected"); err != nil {
					return err
				}
				if err := testkit.Assertf(v.Validate("a/b") != nil, "relative path accepted"); err != nil {
					return err
				}
				return testkit.Assertf(v.Validate("/a//b") != nil, "empty component accepted")
			},
		},
		{
			Name: "hdfs.TestReconstructionProcName", App: "HD",
			// Exercises procedure bookkeeping only; the EC and
			// registration procedures stay uncovered by the suite, as some
			// retry structures always are (§4.2, Table 5).
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				p := NewReconstructionProc(app, "b8")
				return testkit.Assertf(p.Name() == "ec-reconstruction-b8", "name = %q", p.Name())
			},
		},
		{
			Name: "hdfs.TestConfigDefaults", App: "HD",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				got := app.Config.GetInt("dfs.client.retry.max.attempts", 0)
				return testkit.Assertf(got >= 1, "retry attempts default = %d", got)
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
