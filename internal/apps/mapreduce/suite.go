package mapreduce

import (
	"context"

	"wasabi/internal/apps/common"
	"wasabi/internal/errmodel"
	"wasabi/internal/testkit"
)

// Suite returns the MapReduce miniature's existing unit-test suite.
func Suite() testkit.Suite {
	s := testkit.Suite{App: "MA", Name: "MapReduce", ID: "seed:MA", Tests: []testkit.Test{
		{
			Name: "mapreduce.TestTaskAttemptsComplete", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				s := NewTaskAttemptScheduler(app)
				s.Submit("m-0")
				s.Submit("m-1")
				if err := s.Drain(ctx); err != nil {
					return err
				}
				return testkit.Assertf(s.Completed == 2, "completed = %d", s.Completed)
			},
		},
		{
			Name: "mapreduce.TestShuffleFetch", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				seg, err := NewShuffleFetcher(app).FetchMapOutput(ctx, 3)
				if err != nil {
					return err
				}
				return testkit.Assertf(seg == "segment-3", "segment = %q", seg)
			},
		},
		{
			Name: "mapreduce.TestJobSubmit", App: "MA",
			RetryLabeled: true,
			Overrides:    map[string]string{"mapreduce.jobclient.retries": "1"},
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewJobClient(app).Submit(ctx, "wordcount"); err != nil {
					return err
				}
				v, _ := app.Jobs.Get("job/wordcount")
				return testkit.Assertf(v == "SUBMITTED", "job = %q", v)
			},
		},
		{
			Name: "mapreduce.TestJobSubmitRejectsEmpty", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				err := NewJobClient(app).Submit(ctx, "")
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
			Name: "mapreduce.TestCommitOutput", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				if err := NewOutputCommitter(app).CommitWithRetry(ctx, "j1"); err != nil {
					return err
				}
				v, _ := app.Jobs.Get("output/j1")
				return testkit.Assertf(v == "committed", "output = %q", v)
			},
		},
		{
			Name: "mapreduce.TestSpeculativeRequeue", App: "MA",
			RetryLabeled: true,
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				s := NewSpeculativeScheduler(app)
				calls := map[string]int{}
				s.SetStatusSource(func(id string) string {
					calls[id]++
					if id == "slow-1" && calls[id] == 1 {
						return "BUSY_NODE"
					}
					if id == "stale-1" {
						return "STALE"
					}
					return "LAUNCHED"
				})
				s.Enqueue("slow-1")
				s.Enqueue("stale-1")
				s.Drain(ctx)
				if err := testkit.Assertf(s.Relaunched == 1, "relaunched = %d", s.Relaunched); err != nil {
					return err
				}
				return testkit.Assertf(len(s.Dropped) == 1, "dropped = %v", s.Dropped)
			},
		},
		{
			Name: "mapreduce.TestTaskLauncherProcedure", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				exec := common.NewProcedureExecutor()
				if err := exec.Run(ctx, NewTaskLauncherProc(app, "r-0")); err != nil {
					return err
				}
				v, _ := app.Jobs.Get("running/r-0")
				return testkit.Assertf(v == "true", "task not running")
			},
		},
		{
			Name: "mapreduce.TestPickDirSkipsFullDisk", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Jobs.Put("disk0", "full")
				dir, err := NewLocalDirAllocator(app).PickDir(ctx)
				if err != nil {
					return err
				}
				return testkit.Assertf(dir == "/disk2", "dir = %q", dir)
			},
		},
		{
			Name: "mapreduce.TestInputSplitter", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Jobs.Put("input/bad.gz", "unreadable")
				s := NewInputSplitter(app)
				s.ComputeSplits(ctx, []string{"a.txt", "bad.gz", "c.txt"})
				return testkit.Assertf(s.Splits == 2 && s.Skipped == 1, "splits=%d skipped=%d", s.Splits, s.Skipped)
			},
		},
		{
			Name: "mapreduce.TestParseCounters", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				c, err := ParseCounters("maps=3,reduces=1")
				if err != nil {
					return err
				}
				if err := testkit.Assertf(c["maps"] == 3, "maps = %d", c["maps"]); err != nil {
					return err
				}
				_, err = ParseCounters("oops")
				return testkit.Assertf(err != nil, "malformed counters accepted")
			},
		},
		{
			Name: "mapreduce.TestProgressPoller", App: "MA",
			Body: func(ctx context.Context, o map[string]string) error {
				app := New()
				app.Config.ApplyOverrides(o)
				app.Jobs.Put("progress/j2", "80")
				ok := NewProgressPoller(app).WaitForProgress(ctx, "j2", 50, 2)
				return testkit.Assertf(ok, "progress never reached")
			},
		},
	}}
	s.Tests = append(s.Tests, workloadTests()...)
	return s
}
