package cassandra

import (
	"context"

	"wasabi/internal/apps/common"
	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the Cassandra miniature's existing unit-test suite.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "CA", Name: "Cassandra", ID: "seed:CA", Tests: []testkit.Test{
		{
			Name: "cassandra.TestGossipSyn", App: "CA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewGossiper(app).SendSyn(ctx, "n2"); err != nil {
					return err
				}
				v, _ := app.Cluster.Node("n2").Store.Get("gossip/last")
				return testkit.Assertf(v == "syn", "gossip = %q", v)
			},
		},
		{
			Name: "cassandra.TestGossipRejectsEmptyPeer", App: "CA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				err := NewGossiper(app).SendSyn(ctx, "")
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
			Name: "cassandra.TestReadRepair", App: "CA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewReadRepairer(app).Repair(ctx, "k1"); err != nil {
					return err
				}
				v, _ := app.Local.Get("repaired/k1")
				return testkit.Assertf(v == "true", "repaired = %q", v)
			},
		},
		{
			Name: "cassandra.TestBatchlogReplay", App: "CA",
			RetryLabeled: true,
			Overrides:    map[string]string{"cassandra.batchlog.replay.retries": "1"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewBatchlogReplayer(app).Replay(ctx, "b1"); err != nil {
					return err
				}
				v, _ := app.Local.Get("replayed/b1")
				return testkit.Assertf(v == "true", "replayed = %q", v)
			},
		},
		{
			Name: "cassandra.TestStreamChunks", App: "CA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				s := NewStreamSession(app)
				for seq := 0; seq < 3; seq++ {
					s.RetryStream(ctx, seq)
				}
				return testkit.Assertf(s.Streamed == 3, "streamed = %d", s.Streamed)
			},
		},
		{
			Name: "cassandra.TestHintsDelivered", App: "CA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				h := NewHintsDispatcher(app)
				h.Submit("n2")
				h.Submit("n3")
				if err := h.Drain(ctx); err != nil {
					return err
				}
				return testkit.Assertf(h.Delivered == 2, "delivered = %d", h.Delivered)
			},
		},
		{
			Name: "cassandra.TestCommitLogArchive", App: "CA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewCommitLogArchiver(app).Archive(ctx, "seg-1"); err != nil {
					return err
				}
				v, _ := app.Local.Get("archive/seg-1")
				return testkit.Assertf(v == "true", "archived = %q", v)
			},
		},
		{
			Name: "cassandra.TestRepairJob", App: "CA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				exec := common.NewProcedureExecutor()
				if err := exec.Run(ctx, NewRepairJob(app, "ks1")); err != nil {
					return err
				}
				v, _ := app.Local.Get("synced/ks1")
				return testkit.Assertf(v == "true", "synced = %q", v)
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
