package llm

import (
	"fmt"
	"strings"
	"testing"
)

// reviewSrc runs the prompt chain over src saved as mem.go.
func reviewSrc(t *testing.T, cfg Config, src string) FileReview {
	t.Helper()
	return NewClient(cfg).ReviewSnapshotAt(memFile(t, "mem.go", src), -1, 0)
}

func noNoise() Config {
	cfg := DefaultConfig()
	cfg.HallucinateRetryDenom = 0
	cfg.Q4MissDenom = 0
	cfg.CapMisreadDenom = 0
	cfg.DelayMisreadDenom = 0
	return cfg
}

const memHeader = `package mem

import (
	"context"
	"time"

	"wasabi/internal/vclock"
)

func op(ctx context.Context) error { return nil }
`

func TestPolicyDefinitionFileSaysNo(t *testing.T) {
	// Q1 clarification: a file that only builds retry policies is not
	// performing retry.
	rev := reviewSrc(t, noNoise(), memHeader+`
// DefaultRetryPolicy builds the standard retry policy with maxRetries
// attempts and retryDelay between them.
func DefaultRetryPolicy(maxRetries int, retryDelay time.Duration) map[string]any {
	return map[string]any{"retries": maxRetries, "retryDelay": retryDelay}
}
`)
	if rev.PerformsRetry {
		t.Errorf("policy-definition file labeled as retry: %+v", rev.Findings)
	}
}

func TestPollerExcludedByQ4(t *testing.T) {
	rev := reviewSrc(t, noNoise(), memHeader+`
// pollUntilReady keeps retrying the status probe until the service is up.
func pollUntilReady(ctx context.Context) bool {
	for retry := 0; retry < 10; retry++ {
		if err := op(ctx); err != nil {
			vclock.Sleep(ctx, time.Second)
			continue
		}
		return true
	}
	return false
}
`)
	if rev.PerformsRetry {
		t.Errorf("poller should be excluded by Q4: %+v", rev.Findings)
	}
}

func TestQ4MissRetainsPollerFP(t *testing.T) {
	// With the Q4-miss mode enabled at 1-in-1, the exclusion always
	// fails and the poller is retained — the §4.2 FP mode.
	cfg := noNoise()
	cfg.Q4MissDenom = 1
	rev := reviewSrc(t, cfg, memHeader+`
// pollUntilReady keeps retrying the status probe until the service is up.
func pollUntilReady(ctx context.Context) bool {
	for retry := 0; retry < 10; retry++ {
		if err := op(ctx); err != nil {
			vclock.Sleep(ctx, time.Second)
			continue
		}
		return true
	}
	return false
}
`)
	if !rev.PerformsRetry {
		t.Error("with Q4 always missing, the poller FP should be retained")
	}
}

func TestCrossFileSleepInvisible(t *testing.T) {
	// The sleep helper is in ANOTHER file, so the single-file reader
	// answers Q2 "No" — the missing-delay FP mode of §4.3.
	rev := reviewSrc(t, noNoise(), memHeader+`
// send delivers a message, retrying transient failures.
func send(ctx context.Context) error {
	var last error
	for retry := 0; retry < 5; retry++ {
		if err := op(ctx); err != nil {
			last = err
			pauseBetween(ctx, retry) // defined in another file
			continue
		}
		return nil
	}
	return last
}
`)
	var f *Finding
	for i := range rev.Findings {
		if rev.Findings[i].Coordinator == "mem.send" {
			f = &rev.Findings[i]
		}
	}
	if f == nil {
		t.Fatalf("send not identified: %+v", rev.Findings)
	}
	if f.SleepsBeforeRetry {
		t.Error("cross-file sleep helper must be invisible (Q2 = No)")
	}
}

func TestSameFileSleepHelperVisible(t *testing.T) {
	rev := reviewSrc(t, noNoise(), memHeader+`
func pauseBetween(ctx context.Context, n int) {
	vclock.Sleep(ctx, time.Second)
}

// send delivers a message, retrying transient failures.
func send(ctx context.Context) error {
	var last error
	for retry := 0; retry < 5; retry++ {
		if err := op(ctx); err != nil {
			last = err
			pauseBetween(ctx, retry)
			continue
		}
		return nil
	}
	return last
}
`)
	for _, f := range rev.Findings {
		if f.Coordinator == "mem.send" && !f.SleepsBeforeRetry {
			t.Error("same-file sleep helper should be visible (Q2 = Yes)")
		}
	}
}

func TestLargeFileThresholdBoundary(t *testing.T) {
	cfg := noNoise()
	cfg.LargeFileThreshold = 100000
	body := memHeader + `
// send delivers a message, retrying transient failures.
func send(ctx context.Context) error {
	var last error
	for retry := 0; retry < 5; retry++ {
		if err := op(ctx); err != nil {
			last = err
			continue
		}
		return nil
	}
	return last
}
`
	if rev := reviewSrc(t, cfg, body); !rev.PerformsRetry {
		t.Error("small file under a large threshold should be read")
	}
	cfg.LargeFileThreshold = len(body) - 1
	if rev := reviewSrc(t, cfg, body); !rev.TruncatedContext {
		t.Error("file one byte over the threshold should be truncated")
	}
}

func TestTokenAccountingScalesWithFileSize(t *testing.T) {
	c := NewClient(noNoise())
	pad := strings.Repeat("// padding line for token accounting\n", 40)
	c.ReviewSnapshotAt(memFile(t, "a.go", memHeader+pad), -1, 0)
	small := c.Usage().TokensIn
	c.ResetUsage()
	c.ReviewSnapshotAt(memFile(t, "b.go", memHeader+pad+pad+pad), -1, 0)
	large := c.Usage().TokensIn
	if large <= small {
		t.Errorf("tokens: small=%d large=%d", small, large)
	}
}

func TestManyFunctionsAllReviewed(t *testing.T) {
	var b strings.Builder
	b.WriteString(memHeader)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `
// worker%d retries its operation on failure.
func worker%d(ctx context.Context) error {
	var last error
	for retry := 0; retry < 3; retry++ {
		if err := op(ctx); err != nil {
			last = err
			vclock.Sleep(ctx, time.Second)
			continue
		}
		return nil
	}
	return last
}
`, i, i)
	}
	rev := reviewSrc(t, noNoise(), b.String())
	if len(rev.Findings) != 5 {
		t.Errorf("findings = %d, want all 5 workers", len(rev.Findings))
	}
}
