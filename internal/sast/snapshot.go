// snapshot.go is the parse-once entry point of the traditional static
// analysis: AnalyzeSnapshot consumes a pre-loaded source.Snapshot
// instead of re-reading and re-parsing the directory, and splits the
// work file-granularly — per-file extraction is memoized on the
// snapshot file by content hash (File.MemoThrough) and hydrated from
// the portable facts tier (facts.go) when one is attached, so a warm
// daemon re-extracts only files whose bytes changed and a restart-warm
// daemon extracts nothing at all — followed by the cheap cross-file
// merge (package-qualified naming and the retry-loop analysis, which
// must see every method to resolve callees).
package sast

import (
	"fmt"
	"go/ast"
	"go/token"

	"wasabi/internal/source"
)

// factsResult is the memoized extraction outcome: facts, or the parse
// error that prevented them. Errors memoize too — content-addressed
// files fail identically every time.
type factsResult struct {
	ff  *FileFacts
	err error
}

// fileFactsOf returns the file's extraction facts, in preference order:
// the in-memory memo (warm run), the facts store (restart-warm run —
// no parse), or a fresh extraction from the AST (cold run or edit).
func fileFactsOf(f *source.File, store FactsStore) (*FileFacts, error) {
	v := f.MemoThrough(
		func() (any, bool) {
			if store == nil {
				return nil, false
			}
			ff, ok := store.GetFacts(f.SHA256)
			if !ok {
				return nil, false
			}
			return &factsResult{ff: ff}, true
		},
		func() any {
			ff, err := extractFacts(f)
			if err != nil {
				return &factsResult{err: err}
			}
			if store != nil {
				store.PutFacts(f.SHA256, ff)
			}
			return &factsResult{ff: ff}
		})
	r := v.(*factsResult)
	return r.ff, r.err
}

// extractFacts builds the portable facts of one file from its AST — the
// only place the static tier parses.
func extractFacts(f *source.File) (*FileFacts, error) {
	syntax, err := f.Syntax()
	if err != nil {
		return nil, err
	}
	return factsOf(syntax, f.Fset, f.SHA256), nil
}

// factsOf extracts the facts of a parsed file whose content hash is
// hash, reading each function body in one walk.
func factsOf(syntax *ast.File, fset *token.FileSet, hash string) *FileFacts {
	ff := &FileFacts{Schema: FactsSchema, Hash: hash, Pkg: syntax.Name.Name}
	n := 0
	for _, d := range syntax.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			n++
		}
	}
	if n > 0 {
		ff.Funcs = make([]FuncFacts, 0, n)
	}
	x := extractor{file: fset.File(syntax.Package)}
	for _, d := range syntax.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		ff.Funcs = append(ff.Funcs, FuncFacts{Key: FuncKey(fd), Throws: parseThrows(fd.Doc)})
		x.fn = &ff.Funcs[len(ff.Funcs)-1]
		x.calls = x.calls[:0]
		ast.Walk(&x, fd.Body)
		x.fn.Calls = uniqueNames(x.calls)
	}
	return ff
}

// extractor reads one function body in one walk (an ast.Visitor): the
// fault hook, the callee names, and the loop candidates with what the
// retry-naming filter and the callee names of their bodies need.
type extractor struct {
	file *token.File // the positions of the file read

	fn    *FuncFacts // the function being read, in place in the file's facts
	calls []string   // the body's callee names in preorder
	depth int        // of the last node visited that is still open
	// loops are the candidate loops open at the node being visited,
	// innermost last. A loop's keyword flag and callee names are read off
	// keywords and calls when the walk leaves it: the names a loop body
	// calls are a contiguous run of calls.
	loops    []candidateLoop
	keywords int // retry-keyword identifiers and literals seen inside a candidate
}

// candidateLoop is one candidate loop the walk has not left yet.
type candidateLoop struct {
	depth    int
	body     *ast.BlockStmt
	fact     int // its index in fn.Loops
	keywords int // the extractor's count when the loop began
	calls    int // len(calls) when the body began
}

// Visit reads one node of a function body; a nil node closes the last
// node visited that is still open. Identifiers and literals have no
// children, so they are not walked into and get no closing visit.
func (x *extractor) Visit(n ast.Node) ast.Visitor {
	var body *ast.BlockStmt
	switch v := n.(type) {
	case nil:
		if k := len(x.loops) - 1; k >= 0 && x.loops[k].depth == x.depth {
			x.closeLoop(x.loops[k])
			x.loops = x.loops[:k]
		}
		x.depth--
		return nil
	case *ast.Ident:
		x.noteKeyword(v.Name)
		return nil
	case *ast.BasicLit:
		if v.Kind == token.STRING {
			x.noteKeyword(v.Value)
		}
		return nil
	case *ast.SelectorExpr:
		x.fn.HasHook = x.fn.HasHook || isFaultHook(v)
	case *ast.CallExpr:
		if name := bareCalleeName(v); name != "" {
			x.calls = append(x.calls, name)
		}
	case *ast.BlockStmt:
		if k := len(x.loops) - 1; k >= 0 && x.loops[k].body == v {
			x.loops[k].calls = len(x.calls)
		}
	case *ast.ForStmt:
		body = v.Body
	case *ast.RangeStmt:
		body = v.Body
	}
	x.depth++
	if body != nil && catchReachesHeader(body) {
		x.loops = append(x.loops, candidateLoop{depth: x.depth, body: body, fact: len(x.fn.Loops), keywords: x.keywords})
		x.fn.Loops = append(x.fn.Loops, LoopFacts{Line: x.file.Line(n.Pos())})
	}
	return x
}

// noteKeyword counts s when it carries a retry keyword and some open
// candidate loop has none yet. The innermost opened last, so once it has
// one, every open loop has.
func (x *extractor) noteKeyword(s string) {
	if k := len(x.loops) - 1; k >= 0 && x.keywords == x.loops[k].keywords && containsRetryWord(s) {
		x.keywords++
	}
}

// closeLoop completes a candidate's facts once the walk leaves it. Only
// a keyworded loop records its exclusions and callee names.
func (x *extractor) closeLoop(l candidateLoop) {
	lf := &x.fn.Loops[l.fact]
	lf.Keyworded = x.keywords > l.keywords
	if lf.Keyworded {
		lf.Excluded = sortedClasses(excludedExceptions(l.body))
		lf.Calls = uniqueNames(x.calls[l.calls:])
	}
}

// AnalyzeSnapshot runs the retry-loop analysis over a pre-loaded
// snapshot with no facts tier attached: unseen files extract from their
// ASTs. The result is byte-identical to AnalyzeDir over the same
// directory state.
func AnalyzeSnapshot(snap *source.Snapshot) (*Analysis, error) {
	return AnalyzeSnapshotWith(snap, nil)
}

// AnalyzeSnapshotWith is AnalyzeSnapshot with a facts tier: per-file
// facts come from the snapshot's memo, hydrate from the store by
// content hash, or — only when both miss — extract from the AST. Over
// an unchanged corpus with a populated store, it parses nothing; only
// the cross-file merge (naming, callee resolution, loop analysis) runs
// unconditionally, and its output is byte-identical whichever path
// supplied the facts.
func AnalyzeSnapshotWith(snap *source.Snapshot, store FactsStore) (*Analysis, error) {
	a := &Analysis{Files: make(map[string]int, len(snap.Files))}
	facts := make([]*FileFacts, len(snap.Files))
	funcs := 0
	for i, f := range snap.Files {
		ff, err := fileFactsOf(f, store)
		if err != nil {
			return nil, fmt.Errorf("sast: %w", err)
		}
		facts[i] = ff
		funcs += len(ff.Funcs)
		a.Pkg = ff.Pkg
		a.Files[f.Name] = int(f.Size)
	}
	a.Methods = make(map[string]*Method, funcs)
	for i, f := range snap.Files {
		for j := range facts[i].Funcs {
			fn := &facts[i].Funcs[j]
			m := &Method{
				Name:    a.Pkg + "." + fn.Key,
				File:    f.Name,
				Throws:  fn.Throws,
				HasHook: fn.HasHook,
				calls:   fn.Calls,
				loops:   fn.Loops,
			}
			a.Methods[m.Name] = m
		}
	}
	a.indexShortNames()
	a.findRetryLoops()
	return a, nil
}
