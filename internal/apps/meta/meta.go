// Package meta defines the ground-truth manifest of the corpus — the
// reproduction's stand-in for the paper's manual inspection in §4.
//
// Every corpus application exports a manifest describing its retry code
// structures: where they are, which mechanism they use, how their trigger
// is encoded, and which (if any) retry bug each one contains. The manifest
// plays the role of the paper authors' *manual inspection*: WASABI's
// detectors never read it — they analyze source code and test executions —
// and the evaluation harness scores detector reports against it to compute
// the true-bug and false-positive counts of Tables 3, 4 and Figure 3.
package meta

import (
	"fmt"
	"strings"
)

// Mechanism classifies how a retry structure re-executes work (§2.5).
type Mechanism string

const (
	// Loop is simple loop-based retry (≈70% of corpus structures).
	Loop Mechanism = "loop"
	// Queue is asynchronous task re-enqueueing.
	Queue Mechanism = "queue"
	// StateMachine is framework-driven re-execution of a procedure state.
	StateMachine Mechanism = "statemachine"
)

// Trigger classifies how task errors reach the retry decision.
type Trigger string

const (
	// Exception triggers are typed exceptions caught by the coordinator
	// (70% of the paper's study; the only kind WASABI can inject).
	Exception Trigger = "exception"
	// ErrorCode triggers are status codes inspected by the coordinator;
	// out of scope for WASABI's exception injection (§4.2).
	ErrorCode Trigger = "errorcode"
)

// Bug labels a structure's ground-truth defect, if any.
type Bug string

const (
	// None marks a correct retry structure.
	None Bug = ""
	// MissingCap marks unbounded retry (WHEN, §2.3.2).
	MissingCap Bug = "missing-cap"
	// MissingDelay marks back-to-back retry without delay (WHEN, §2.3.1).
	MissingDelay Bug = "missing-delay"
	// How marks a defect in retry execution (state reset, job tracking;
	// §2.4) that manifests when a fault strikes once.
	How Bug = "how"
	// WrongPolicyNotRetried marks a recoverable error that is not retried
	// (IF, §2.2.1).
	WrongPolicyNotRetried Bug = "if-not-retried"
	// WrongPolicyRetried marks a non-recoverable error that is retried
	// (IF, §2.2.1).
	WrongPolicyRetried Bug = "if-retried"
)

// Structure describes one retry code structure in the corpus.
type Structure struct {
	// App is the application short code: HA, HD, MA, YA, HB, HI, CA, EL.
	App string
	// Coordinator is the method implementing the retry decision, in
	// "pkg.Type.method" form matching runtime stack normalization.
	Coordinator string
	// Retried lists the retried methods invoked by the coordinator that
	// carry fault hooks (empty for error-code structures).
	Retried []string
	// File is the source file basename implementing the coordinator.
	File string

	Mechanism Mechanism
	Trigger   Trigger

	// Keyworded reports whether the structure carries a retry-ish
	// identifier or literal, making it detectable by the CodeQL-style
	// analysis (§3.1.1 technique 1).
	Keyworded bool

	// Bug is the ground-truth defect class.
	Bug Bug

	// DelayUnneeded marks structures that retry without delay but
	// compensate between attempts (e.g. switching replicas), so a
	// missing-delay report against them is a false positive (§4.3).
	DelayUnneeded bool

	// HarnessRetried marks structures whose cap is correct but whose
	// callers re-drive them for many independent tasks in one run, so a
	// 100-injection missing-cap report is a false positive (§4.3).
	HarnessRetried bool

	// WrapsErrors marks structures that wrap caught exceptions in a
	// general application exception before propagating, the source of
	// "different exception" oracle false positives (§4.3).
	WrapsErrors bool

	// Note documents the bug or the real-world issue it is modeled on.
	Note string
}

// HasBug reports whether the structure carries any ground-truth defect.
func (s Structure) HasBug() bool { return s.Bug != None }

// Key returns a unique identifier for the structure.
func (s Structure) Key() string { return s.App + "/" + s.Coordinator }

// CountByMechanism tallies structures per mechanism.
func CountByMechanism(list []Structure) map[Mechanism]int {
	out := make(map[Mechanism]int)
	for _, s := range list {
		out[s.Mechanism]++
	}
	return out
}

// CountByTrigger tallies structures per trigger encoding.
func CountByTrigger(list []Structure) map[Trigger]int {
	out := make(map[Trigger]int)
	for _, s := range list {
		out[s.Trigger]++
	}
	return out
}

// AppCount is one application's manifest tallies — a row of the
// per-application composition table in docs/CORPUS.md.
type AppCount struct {
	Code       string
	Structures int
	Loop       int
	Queue      int
	SM         int
	Exception  int
	ErrCode    int
	Keyworded  int
	Buggy      int
}

// CountApp tallies one application's structures (matched by App code,
// so the full corpus manifest can be passed) into a table row.
func CountApp(code string, list []Structure) AppCount {
	row := AppCount{Code: code}
	for _, s := range list {
		if s.App != code {
			continue
		}
		row.Structures++
		switch s.Mechanism {
		case Loop:
			row.Loop++
		case Queue:
			row.Queue++
		case StateMachine:
			row.SM++
		}
		switch s.Trigger {
		case Exception:
			row.Exception++
		case ErrorCode:
			row.ErrCode++
		}
		if s.Keyworded {
			row.Keyworded++
		}
		if s.HasBug() {
			row.Buggy++
		}
	}
	return row
}

// CompositionTable renders rows as the markdown composition table of
// docs/CORPUS.md, byte-for-byte (so the docs-check drift gate can verify
// the documented table is computed from the manifests themselves).
func CompositionTable(rows []AppCount) string {
	var b strings.Builder
	b.WriteString("| App | Structures | Loop | Queue | SM | Exception | ErrCode | Keyworded | Buggy |\n")
	b.WriteString("|-----|-----------:|-----:|------:|---:|----------:|--------:|----------:|------:|\n")
	var sum AppCount
	for _, r := range rows {
		fmt.Fprintf(&b, "| %-3s | %2d | %2d | %2d | %d | %2d | %2d | %2d | %2d |\n",
			r.Code, r.Structures, r.Loop, r.Queue, r.SM, r.Exception, r.ErrCode, r.Keyworded, r.Buggy)
		sum.Structures += r.Structures
		sum.Loop += r.Loop
		sum.Queue += r.Queue
		sum.SM += r.SM
		sum.Exception += r.Exception
		sum.ErrCode += r.ErrCode
		sum.Keyworded += r.Keyworded
		sum.Buggy += r.Buggy
	}
	fmt.Fprintf(&b, "| **Σ** | **%d** | **%d** | **%d** | **%d** | **%d** | **%d** | **%d** | **%d** |\n",
		sum.Structures, sum.Loop, sum.Queue, sum.SM, sum.Exception, sum.ErrCode, sum.Keyworded, sum.Buggy)
	return b.String()
}
