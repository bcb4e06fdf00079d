// Package sast is WASABI's traditional static analysis over real Go ASTs —
// the reproduction of the paper's CodeQL queries (§3.1.1 technique 1 and
// §3.2.2).
//
// It provides three analyses over a corpus application's source directory:
//
//  1. Retry-loop identification: loops whose header is reachable from an
//     error-handling ("catch") block in the loop body, filtered by the
//     retry-naming heuristic, with (coordinator, retried method, trigger
//     exception) triplet extraction from callee "Throws:" declarations —
//     the Go analogue of Java's checked-exception signatures.
//  2. Callee/throws lookup for an arbitrary coordinator method, used as
//     the second step of the LLM identification workflow (the paper goes
//     "back to CodeQL" to resolve callees and their exceptions).
//  3. The application-wide retry-ratio analysis for IF-bug detection.
package sast

import (
	"fmt"
	"go/ast"
	"slices"
	"sort"
	"strings"
	"sync"

	"wasabi/internal/source"
)

// Method is a function or method declaration found in the corpus. It
// carries no AST: everything the merge needs comes from the portable
// facts (facts.go), which is what makes a cached Analysis rebuildable
// without parsing.
type Method struct {
	// Name is the normalized identifier "pkg.Type.method" or "pkg.func".
	Name string
	// File is the source file basename containing the declaration.
	File string
	// Throws lists the exception classes declared in the method's
	// "Throws:" doc-comment line.
	Throws []string
	// HasHook reports whether the method body calls fault.Hook, i.e. it
	// is instrumentable for injection.
	HasHook bool

	// calls / loops are the method's FuncFacts payload: bare callee
	// names of the body and the structural retry-loop candidates.
	calls []string
	loops []LoopFacts
}

// Triplet is a retry location: coordinator, retried method, and a trigger
// exception the retried method may throw whose handling returns control to
// the retry.
type Triplet struct {
	Coordinator string
	Retried     string
	Exception   string
}

// RetryLoop is one identified loop-based retry structure.
type RetryLoop struct {
	Coordinator string
	File        string
	Line        int
	// Keyworded reports whether the loop passes the retry-naming filter.
	Keyworded bool
	// Triplets are the injectable retry locations of this loop.
	Triplets []Triplet
	// ThrownHere maps each exception throwable inside the loop to whether
	// it is retried (handler returns control to the loop header) — the
	// input of the IF-ratio analysis.
	ThrownHere map[string]bool
}

// Analysis is the result of analyzing one application directory.
type Analysis struct {
	// Pkg is the Go package name, used as the app prefix in method names.
	Pkg string
	// Files maps basenames to their byte size (the LLM workflow uses
	// sizes; contents are re-read by the LLM itself).
	Files map[string]int
	// Methods maps normalized names to declarations.
	Methods map[string]*Method
	// Loops are the keyword-filtered retry loops (the tool's output).
	Loops []RetryLoop
	// CandidateLoops counts the structural candidates *before* the
	// keyword filter — the §4.4 ablation ("3.5x more loops").
	CandidateLoops int

	// byShort indexes Methods by bare method name (indexShortNames);
	// read-only once the constructor returns.
	byShort map[string][]*Method
	// callees memoizes CalleesOf by coordinator: the analysis never
	// changes once built, so each coordinator's triplets are resolved
	// once however many jobs share it.
	callees sync.Map // string → []Triplet
	// table is the analysis's retry table (retryTable), built once.
	tableOnce sync.Once
	table     []ExceptionRatio
}

// AnalyzeDir loads every non-test Go file in dir into a one-shot
// snapshot and runs the retry-loop analysis. Pipeline runs go through
// AnalyzeSnapshot (snapshot.go) on an already-loaded, shared snapshot
// instead; this entry point remains for standalone callers and parses
// each file exactly once either way.
func AnalyzeDir(dir string) (*Analysis, error) {
	snap, err := source.NewStore(nil).Load(dir)
	if err != nil {
		return nil, fmt.Errorf("sast: %w", err)
	}
	return AnalyzeSnapshot(snap)
}

// FuncKey renders "Type.method" for methods and "func" for functions:
// the package-unqualified name of a coordinator. Both identification
// techniques name functions through it, so core.identify's merge of LLM
// findings into static structures never sees one coordinator under two
// names.
func FuncKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// parseThrows extracts the exception classes from a "Throws:" doc line.
func parseThrows(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if !strings.Contains(c.Text, "Throws:") {
			continue
		}
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(line, "Throws:") {
			continue
		}
		line = strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "Throws:")), ".")
		var out []string
		for more := true; more; {
			var part string
			part, line, more = strings.Cut(line, ",")
			if p := strings.TrimSpace(part); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	return nil
}

// isFaultHook reports whether sel names fault.Hook.
func isFaultHook(sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "fault" && sel.Sel.Name == "Hook"
}

// indexShortNames builds byShort, the methods indexed by their bare
// method name (the last dot-separated segment), each list sorted by
// qualified name — the index call expressions resolve against. It runs
// once, in the constructor, before the Analysis is shared: the analysis
// cache hands one *Analysis to concurrent jobs, so the index is never
// built lazily.
func (a *Analysis) indexShortNames() {
	a.byShort = make(map[string][]*Method)
	for _, m := range a.Methods {
		short := m.Name[strings.LastIndex(m.Name, ".")+1:]
		a.byShort[short] = append(a.byShort[short], m)
	}
	for _, ms := range a.byShort {
		sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	}
}

// CalleesOf returns, for a coordinator method name, every corpus method it
// calls that declares Throws, with the declared exceptions — the lookup
// the LLM identification workflow delegates back to traditional analysis.
// Callee names were recorded at extraction time (facts.go); resolution
// against the corpus method index happens here, so the result reflects
// the whole analysis even when every file's facts hydrated from disk.
// Each coordinator is resolved once per Analysis; every later call, from
// any goroutine, returns the same slice, which callers must not mutate.
func (a *Analysis) CalleesOf(coordinator string) []Triplet {
	if ts, ok := a.callees.Load(coordinator); ok {
		return ts.([]Triplet)
	}
	m := a.Methods[coordinator]
	if m == nil {
		return nil
	}
	ts, _ := a.callees.LoadOrStore(coordinator, a.resolveCallees(coordinator, m))
	return ts.([]Triplet)
}

// resolveCallees lists the throwing corpus methods coordinator's
// method m calls, with their declared exceptions, sorted by (retried,
// exception).
func (a *Analysis) resolveCallees(coordinator string, m *Method) []Triplet {
	var out []Triplet
	seen := make(map[Triplet]bool)
	for _, name := range m.calls {
		for _, callee := range a.byShort[name] {
			if !callee.HasHook {
				continue
			}
			for _, exc := range callee.Throws {
				t := Triplet{Coordinator: coordinator, Retried: callee.Name, Exception: exc}
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b Triplet) int {
		if c := strings.Compare(a.Retried, b.Retried); c != 0 {
			return c
		}
		return strings.Compare(a.Exception, b.Exception)
	})
	return out
}

// bareCalleeName maps a call expression to the bare name resolution
// works over, or "" for calls the analysis ignores. Name-based
// resolution is deliberately fuzzy (the paper's analysis is "neither
// sound nor complete"); the test oracles absorb the inaccuracy.
func bareCalleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		// Skip cross-package utility calls like vclock.Sleep.
		if id, ok := fn.X.(*ast.Ident); ok {
			switch id.Name {
			case "fault", "vclock", "errmodel", "trace", "common", "testkit", "resilience",
				"strings", "strconv", "fmt", "time", "sort", "context", "math":
				return ""
			}
		}
		return fn.Sel.Name
	}
	return ""
}

// uniqueNames returns names sorted without repeats, in a new slice, or
// nil when there are none: the canonical facts form of a list of callee
// names. It sorts names in place. Only the set matters: every consumer
// re-sorts its resolved output, so recording names instead of resolved
// methods loses nothing.
func uniqueNames(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	slices.Sort(names)
	n := 1
	for i := 1; i < len(names); i++ {
		if names[i] != names[i-1] {
			n++
		}
	}
	out := make([]string, 0, n)
	for i, name := range names {
		if i == 0 || name != names[i-1] {
			out = append(out, name)
		}
	}
	return out
}

// sortedClasses renders an exception-class set in canonical slice form.
func sortedClasses(set map[string]bool) []string {
	if len(set) == 0 {
		return nil
	}
	out := make([]string, 0, len(set))
	for cls := range set {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}
