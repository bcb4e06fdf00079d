package llm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"

	"wasabi/internal/sast"
)

// referenceEvidence is the straightforward evidence read that
// gatherEvidence replaced: it scans every comment group of the file for
// each function, lowercases a string once per word list, and evaluates
// every check even when its flag is already set. It is the oracle of the
// differential tests (evidence_diff_test.go); keep it as it is. The
// checks whose production versions read text through the vocabulary
// automaton are copied here as they were.
func referenceEvidence(fd *ast.FuncDecl, fileComments []*ast.CommentGroup, localSleepFuncs map[string]bool) evidence {
	var ev evidence

	var comments []string
	if fd.Doc != nil {
		comments = append(comments, fd.Doc.Text())
	}
	for _, cg := range fileComments {
		if cg.Pos() >= fd.Pos() && cg.End() <= fd.End() {
			comments = append(comments, cg.Text())
		}
	}
	for _, c := range comments {
		if referenceContainsAny(c, retryCommentWords) {
			ev.commentRetry = true
		}
		if referenceContainsAny(c, pollWords) {
			ev.pollish = true
		}
	}

	if referenceContainsAny(fd.Name.Name, pollWords) {
		ev.pollish = true
	}
	if fd.Name.Name == "Step" {
		ev.stateMach = true
	}

	var errIdentSeen bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			if referenceContainsAny(v.Name, retryIdentWords) {
				ev.identRetry = true
			}
			if referenceContainsAny(v.Name, weakIdentWords) {
				ev.identRetryWeak = true
			}
			if referenceContainsAny(v.Name, pollWords) {
				ev.pollish = true
			}
		case *ast.BasicLit:
			if v.Kind.String() == "STRING" && referenceContainsAny(v.Value, retryIdentWords) {
				ev.identRetry = true
			}
		case *ast.ForStmt:
			if loopHandlesError(v.Body) {
				ev.loopErrOnErr = true
			}
			if loopSwitchesStatusAndPauses(v.Body) {
				ev.statusLoop = true
			}
			if boundedLoopCond(v.Cond) {
				ev.capped = true
			}
		case *ast.RangeStmt:
			if loopHandlesError(v.Body) {
				ev.loopErrOnErr = true
			}
			ev.capped = ev.capped || loopHandlesError(v.Body)
		case *ast.IfStmt:
			if referenceAttemptComparison(v.Cond) {
				ev.capped = true
			}
		case *ast.SwitchStmt:
			if tag, ok := v.Tag.(*ast.Ident); ok && strings.Contains(strings.ToLower(tag.Name), "state") {
				ev.stateMach = true
			}
			if sel, ok := v.Tag.(*ast.SelectorExpr); ok && strings.Contains(strings.ToLower(sel.Sel.Name), "state") {
				ev.stateMach = true
			}
		case *ast.CallExpr:
			name := calleeName(v)
			low := strings.ToLower(name)
			if name == "Sleep" || strings.Contains(low, "sleep") || localSleepFuncs[name] {
				ev.sleeps = true
			}
			if strings.Contains(low, "requeue") || strings.Contains(low, "resubmit") ||
				((name == "Put" || name == "Enqueue" || name == "Submit") && referenceReceiverIsQueue(v)) {
				ev.requeue = ev.requeue || errIdentSeen
			}
			if strings.Contains(low, "compareandswap") || strings.Contains(low, "compareandset") {
				ev.pollish = true
			}
			if name == "NewPolicy" || name == "Do" && referenceUsesResilience(v) {
				ev.capped = true
				ev.sleeps = true
			}
		case *ast.BinaryExpr:
			if referenceIsErrNilCheck(v) {
				errIdentSeen = true
			}
		}
		return true
	})
	return ev
}

// referenceContainsAny lowercases s on every call, as the reference read
// did.
func referenceContainsAny(s string, words []string) bool {
	l := strings.ToLower(s)
	for _, w := range words {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// DiffEvidence parses src the way the source store does and compares
// fileEvidence with referenceEvidence for every function with a body.
// It returns a description of the first disagreement, "" when all
// agree, and the parse error when src does not parse.
func DiffEvidence(name string, src []byte) (string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return "", err
	}
	sleepFuncs := localSleepFunctions(f)
	evs := fileEvidence(f)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		got := evs[0]
		evs = evs[1:]
		want := referenceEvidence(fd, f.Comments, sleepFuncs)
		if got != want {
			return fmt.Sprintf("%s: %s: evidence %+v, reference %+v", name, sast.FuncKey(fd), got, want), nil
		}
	}
	return "", nil
}

// localSleepFunctions is the reference's pre-pass, which fileEvidence
// folds into its read: the names of file-local functions whose own
// bodies call a sleep.
func localSleepFunctions(f *ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		found := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				name := calleeName(call)
				if name == "Sleep" || strings.Contains(strings.ToLower(name), "sleep") {
					found = true
				}
			}
			return !found
		})
		if found {
			out[fd.Name.Name] = true
		}
	}
	return out
}

// loopSwitchesStatusAndPauses is the reference's re-walk of a for body
// for the error-code retry shape: a switch on some status value and a
// sleep in at least one branch before the next iteration.
func loopSwitchesStatusAndPauses(body *ast.BlockStmt) bool {
	hasSwitch, hasSleep := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SwitchStmt:
			hasSwitch = true
		case *ast.CallExpr:
			if strings.Contains(strings.ToLower(calleeName(v)), "sleep") {
				hasSleep = true
			}
		}
		return !(hasSwitch && hasSleep)
	})
	return hasSwitch && hasSleep
}

// loopHandlesError is the reference's re-walk of a loop body for an
// error-nil check.
func loopHandlesError(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			if bin, ok := ifs.Cond.(*ast.BinaryExpr); ok && referenceIsErrNilCheck(bin) {
				found = true
			}
		}
		return !found
	})
	return found
}

func referenceIsErrNilCheck(bin *ast.BinaryExpr) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	isErrName := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.Ident:
			return strings.HasSuffix(strings.ToLower(v.Name), "err") || v.Name == "e"
		case *ast.SelectorExpr:
			return strings.HasSuffix(strings.ToLower(v.Sel.Name), "err")
		}
		return false
	}
	if bin.Op != token.NEQ && bin.Op != token.EQL {
		return false
	}
	return (isNil(bin.X) && isErrName(bin.Y)) || (isNil(bin.Y) && isErrName(bin.X))
}

func referenceAttemptComparison(cond ast.Expr) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
	default:
		return false
	}
	mentionsAttempt := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.Ident:
			return referenceContainsAny(v.Name, attemptWords)
		case *ast.SelectorExpr:
			return referenceContainsAny(v.Sel.Name, attemptWords)
		}
		return false
	}
	return mentionsAttempt(bin.X) || mentionsAttempt(bin.Y)
}

func referenceReceiverIsQueue(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(x.Name), "queue")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(x.Sel.Name), "queue")
	}
	return false
}

func referenceUsesResilience(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(x.Name), "policy")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(x.Sel.Name), "policy")
	}
	return false
}
