package sast

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"slices"
	"strings"
)

// referenceFacts is the extraction that factsOf replaced: one walk of a
// function body for its hook and callee names, and for every candidate
// loop a re-walk of the whole loop for the retry keyword and of its body
// for the callee names. It is the oracle of the differential tests
// (facts_diff_test.go); keep it as it is. The "Throws:" doc-line parse,
// since rewritten, is copied here as it was.
func referenceFacts(syntax *ast.File, fset *token.FileSet, hash string) *FileFacts {
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
	for _, d := range syntax.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn := FuncFacts{Key: FuncKey(fd), Throws: referenceParseThrows(fd.Doc)}
		var calls []string
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.SelectorExpr:
				fn.HasHook = fn.HasHook || isFaultHook(v)
				return true
			case *ast.CallExpr:
				if name := bareCalleeName(v); name != "" {
					calls = append(calls, name)
				}
				return true
			case *ast.ForStmt:
				body = v.Body
			case *ast.RangeStmt:
				body = v.Body
			default:
				return true
			}
			if !catchReachesHeader(body) {
				return true
			}
			lf := LoopFacts{
				Line:      fset.Position(n.Pos()).Line,
				Keyworded: referenceHasRetryKeyword(n),
			}
			if lf.Keyworded {
				lf.Excluded = sortedClasses(excludedExceptions(body))
				lf.Calls = referenceCallNamesIn(body)
			}
			fn.Loops = append(fn.Loops, lf)
			return true
		})
		fn.Calls = referenceSortedUnique(calls)
		ff.Funcs = append(ff.Funcs, fn)
	}
	return ff
}

// referenceHasRetryKeyword re-walks a loop node for an identifier,
// selector, or string literal whose lowercase form holds a retry word.
func referenceHasRetryKeyword(loop ast.Node) bool {
	found := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.Ident:
			if referenceContainsRetryWord(v.Name) {
				found = true
			}
		case *ast.BasicLit:
			if v.Kind == token.STRING && referenceContainsRetryWord(v.Value) {
				found = true
			}
		}
		return !found
	})
	return found
}

func referenceContainsRetryWord(s string) bool {
	l := strings.ToLower(s)
	return strings.Contains(l, "retry") || strings.Contains(l, "retrie") ||
		strings.Contains(l, "reattempt") || strings.Contains(l, "resubmit")
}

// referenceCallNamesIn re-walks a block for its bare callee names.
func referenceCallNamesIn(body *ast.BlockStmt) []string {
	var out []string
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := bareCalleeName(call); name != "" {
				out = append(out, name)
			}
		}
		return true
	})
	return referenceSortedUnique(out)
}

func referenceParseThrows(doc *ast.CommentGroup) []string {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(line, "Throws:") {
			continue
		}
		line = strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "Throws:")), ".")
		var out []string
		for _, part := range strings.Split(line, ",") {
			if p := strings.TrimSpace(part); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	return nil
}

func referenceSortedUnique(names []string) []string {
	slices.Sort(names)
	return slices.Compact(names)
}

// DiffFacts parses src the way the source store does and compares the
// facts factsOf extracts with referenceFacts'. It returns a description
// of the first disagreement, "" when they agree, and the parse error
// when src does not parse.
func DiffFacts(name string, src []byte) (string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return "", err
	}
	got, want := factsOf(f, fset, "h"), referenceFacts(f, fset, "h")
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got.Funcs), len(want.Funcs)) {
			if !reflect.DeepEqual(got.Funcs[i], want.Funcs[i]) {
				return fmt.Sprintf("%s: %s: facts %+v, reference %+v", name, want.Funcs[i].Key, got.Funcs[i], want.Funcs[i]), nil
			}
		}
		return fmt.Sprintf("%s: facts %+v, reference %+v", name, got, want), nil
	}
	return "", nil
}
