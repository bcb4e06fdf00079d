package sast

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"unicode/utf8"
)

// findRetryLoops runs the cross-file half of the control-flow + naming
// analysis of §3.1.1: the structural work (loop discovery, catch-block
// reachability, the keyword filter, excluded-exception scanning)
// happened at extraction time and lives in each method's LoopFacts;
// here the recorded candidates are counted, the keyworded ones get
// their callee names resolved against the whole corpus, and triplets
// are emitted. The output is byte-identical to the pre-facts AST walk:
// methods are visited in sorted name order, loops in recorded (syntax)
// order, and every per-loop result is dedup-sorted downstream of
// resolution, so only the recorded name sets matter.
func (a *Analysis) findRetryLoops() {
	names := make([]string, 0, len(a.Methods))
	for n := range a.Methods {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		m := a.Methods[name]
		for _, lf := range m.loops {
			a.CandidateLoops++
			if !lf.Keyworded {
				continue
			}
			excluded := make(map[string]bool, len(lf.Excluded))
			for _, cls := range lf.Excluded {
				excluded[cls] = true
			}
			loop := RetryLoop{
				Coordinator: m.Name,
				File:        m.File,
				Line:        lf.Line,
				Keyworded:   true,
				ThrownHere:  make(map[string]bool),
			}
			for _, callee := range throwingCallees(lf.Calls, a.byShort) {
				for _, exc := range callee.Throws {
					retried := !excluded[exc]
					loop.ThrownHere[exc] = retried
					if retried && callee.HasHook {
						loop.Triplets = append(loop.Triplets, Triplet{
							Coordinator: m.Name,
							Retried:     callee.Name,
							Exception:   exc,
						})
					}
				}
			}
			a.Loops = append(a.Loops, loop)
		}
	}
}

// catchReachesHeader reports whether the loop body contains an
// error-handling block from which control returns to the loop header —
// either an `if err != nil` block that continues or falls through, or the
// inverted `if err == nil { return/break }` shape whose fallthrough is the
// handler.
func catchReachesHeader(body *ast.BlockStmt) bool {
	found := false
	walkShallow(body, func(s ast.Stmt) {
		ifs, ok := s.(*ast.IfStmt)
		if !ok || found {
			return
		}
		switch errCheckKind(ifs.Cond) {
		case errNotNil:
			if containsContinue(ifs.Body) || !terminates(ifs.Body) {
				found = true
			}
		case errIsNil:
			if terminates(ifs.Body) {
				// Fallthrough after "if err == nil { return }" is the
				// handler; it reaches the header unless the remaining
				// body unconditionally leaves the loop, which we cannot
				// see locally — accept, matching CodeQL's over-approx.
				found = true
			}
		}
	})
	return found
}

type errCheck int

const (
	errCheckNone errCheck = iota
	errNotNil
	errIsNil
)

// errCheckKind classifies an if-condition as an error check.
func errCheckKind(cond ast.Expr) errCheck {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return errCheckNone
	}
	isNilComparison := func(x, y ast.Expr) bool {
		id, ok := y.(*ast.Ident)
		if !ok || id.Name != "nil" {
			return false
		}
		switch lhs := x.(type) {
		case *ast.Ident:
			return looksLikeErrName(lhs.Name)
		case *ast.SelectorExpr:
			return looksLikeErrName(lhs.Sel.Name)
		}
		return false
	}
	switch bin.Op {
	case token.NEQ:
		if isNilComparison(bin.X, bin.Y) || isNilComparison(bin.Y, bin.X) {
			return errNotNil
		}
	case token.EQL:
		if isNilComparison(bin.X, bin.Y) || isNilComparison(bin.Y, bin.X) {
			return errIsNil
		}
	}
	return errCheckNone
}

// looksLikeErrName matches the conventional error variable spellings.
func looksLikeErrName(name string) bool {
	n := strings.ToLower(name)
	return n == "err" || n == "e" || n == "last" || n == "lasterr" ||
		strings.HasSuffix(n, "err") || strings.HasSuffix(n, "error")
}

// walkShallow visits statements in a block, descending into blocks, ifs,
// and switches but NOT into nested loops or function literals (whose
// continue/handlers belong to a different scope).
func walkShallow(block *ast.BlockStmt, visit func(ast.Stmt)) {
	if block == nil {
		return
	}
	for _, s := range block.List {
		walkShallowStmt(s, visit)
	}
}

func walkShallowStmt(s ast.Stmt, visit func(ast.Stmt)) {
	visit(s)
	switch st := s.(type) {
	case *ast.BlockStmt:
		walkShallow(st, visit)
	case *ast.IfStmt:
		walkShallow(st.Body, visit)
		if st.Else != nil {
			walkShallowStmt(st.Else, visit)
		}
	case *ast.SwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					walkShallowStmt(cs, visit)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					walkShallowStmt(cs, visit)
				}
			}
		}
	}
}

// containsContinue reports whether the block contains a continue targeting
// the enclosing loop.
func containsContinue(block *ast.BlockStmt) bool {
	found := false
	walkShallow(block, func(s ast.Stmt) {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.CONTINUE {
			found = true
		}
	})
	return found
}

// terminates reports whether control definitely leaves the enclosing loop
// at the end of the block (return, break, or panic on every path we model).
func terminates(block *ast.BlockStmt) bool {
	if block == nil || len(block.List) == 0 {
		return false
	}
	return stmtTerminates(block.List[len(block.List)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return st.Tok == token.BREAK || st.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
		return false
	case *ast.BlockStmt:
		return terminates(st)
	case *ast.IfStmt:
		if st.Else == nil {
			return false
		}
		return terminates(st.Body) && stmtTerminates(st.Else)
	default:
		return false
	}
}

// containsRetryWord is the naming heuristic: a loop is keyworded when
// it contains an identifier, selector, or string literal whose lowercase
// form contains "retry", "retrie" (covering "retries"), "reattempt" or
// "resubmit". Comments are NOT consulted, matching the paper's CodeQL
// query. ASCII text is compared without lowercasing it; other text is
// lowercased by strings.ToLower, whose Unicode rules can yield ASCII
// letters.
func containsRetryWord(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			l := strings.ToLower(s)
			return strings.Contains(l, "retry") || strings.Contains(l, "retrie") ||
				strings.Contains(l, "reattempt") || strings.Contains(l, "resubmit")
		}
		// Every word starts "re": c|0x20 folds only 'R' to 'r' and 'E'
		// to 'e'.
		if c|0x20 == 'r' && i+1 < len(s) && s[i+1]|0x20 == 'e' {
			rest := s[i:]
			if hasPrefixFold(rest, "retry") || hasPrefixFold(rest, "retrie") ||
				hasPrefixFold(rest, "reattempt") || hasPrefixFold(rest, "resubmit") {
				return true
			}
		}
	}
	return false
}

// hasPrefixFold reports whether s starts with the lower-case ASCII word
// w in either case. A non-ASCII byte among the first len(w) leaves
// fewer runes there than w has, so it never matches.
func hasPrefixFold(s, w string) bool {
	return len(s) >= len(w) && strings.EqualFold(s[:len(w)], w)
}

// excludedExceptions finds the "catch and abort" pattern: an if statement
// testing errmodel.IsClass/CauseIsClass(err, "X") whose body leaves the
// loop, meaning X does not trigger retry.
func excludedExceptions(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	var scan func(*ast.BlockStmt)
	scan = func(b *ast.BlockStmt) {
		walkShallow(b, func(s ast.Stmt) {
			ifs, ok := s.(*ast.IfStmt)
			if !ok {
				return
			}
			cls := isClassCheck(ifs.Cond)
			if cls != "" && terminates(ifs.Body) {
				out[cls] = true
			}
		})
	}
	scan(body)
	return out
}

// isClassCheck extracts the class literal from an
// errmodel.IsClass(err, "X") or errmodel.CauseIsClass(err, "X") condition,
// including when joined by && with other tests.
func isClassCheck(cond ast.Expr) string {
	switch c := cond.(type) {
	case *ast.CallExpr:
		sel, ok := c.Fun.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != "errmodel" {
			return ""
		}
		if sel.Sel.Name != "IsClass" && sel.Sel.Name != "CauseIsClass" {
			return ""
		}
		if len(c.Args) != 2 {
			return ""
		}
		lit, ok := c.Args[1].(*ast.BasicLit)
		if !ok {
			return ""
		}
		return strings.Trim(lit.Value, `"`)
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			if cls := isClassCheck(c.X); cls != "" {
				return cls
			}
			return isClassCheck(c.Y)
		}
	}
	return ""
}

// throwingCallees resolves recorded bare callee names to corpus methods
// declaring Throws (whether or not they carry hooks; hook presence
// gates triplet injectability, not throwability), deduped by qualified
// name and sorted.
func throwingCallees(names []string, short map[string][]*Method) []*Method {
	var out []*Method
	seen := make(map[string]bool)
	for _, name := range names {
		for _, m := range short[name] {
			if len(m.Throws) == 0 || seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
