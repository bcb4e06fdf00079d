package llm

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"unicode/utf8"
)

// evidence is what the simulated model "notices" about one function. The
// paper's observation is that comments, names, and literals are better
// retry indicators than structure alone (§2.1, §3.1.1); this struct scores
// exactly those signals.
type evidence struct {
	commentRetry   bool // comments mention retry-ish vocabulary
	identRetry     bool // identifiers carry strong retry substrings
	identRetryWeak bool // identifiers carry weak evidence (attempt/tries)
	loopErrOnErr   bool // a loop re-checks an error and keeps going
	statusLoop     bool // a loop switches on a status and pauses (error-code retry)
	requeue        bool // a task is re-submitted to a queue on error
	stateMach      bool // procedure/state-machine shape
	sleeps         bool // Q2: a sleep happens before re-execution
	capped         bool // Q3: attempts are bounded
	pollish        bool // Q4: poll / spin-lock / status-wait shape
}

func (e evidence) score() int {
	s := 0
	if e.commentRetry {
		s += 2
	}
	if e.identRetry {
		s += 2
	}
	if e.identRetryWeak {
		s++
	}
	if e.loopErrOnErr {
		s++
	}
	if e.statusLoop {
		s++
	}
	if e.requeue {
		s++
	}
	return s
}

// hasReexecutionShape reports whether the function contains any structural
// re-execution form — the Q1 clarification that definitions-only files are
// not retry.
func (e evidence) hasReexecutionShape() bool {
	return e.loopErrOnErr || e.statusLoop || e.requeue || e.stateMach
}

func (e evidence) mechanism() string {
	switch {
	case e.stateMach:
		return "statemachine"
	case e.requeue:
		return "queue"
	default:
		return "loop"
	}
}

// retryCommentWords is the vocabulary the model associates with retry in
// prose.
var retryCommentWords = []string{
	"retry", "retri", "re-try", "reattempt", "re-attempt",
	"resubmit", "re-submit", "resubmitting", "re-enqueue", "requeue",
	"re-queue", "re-dispatch", "re-request", "re-run", "re-sent",
	"resend", "re-send", "re-execut", "re-evaluat",
	"backoff", "back off",
}

// retryIdentWords is the strong identifier vocabulary.
var retryIdentWords = []string{
	"retry", "retrie", "backoff", "requeue", "resubmit",
}

// weakIdentWords carry weaker evidence: "attempt" and "tries" also name
// ordinary counters.
var weakIdentWords = []string{
	"attempt", "tries",
}

// pollWords marks poll/spin shapes for Q4.
var pollWords = []string{
	"poll", "waitfor", "spin", "compareandswap", "compareandset", "probe",
}

// attemptWords name the counters a cap check compares (attemptComparison).
var attemptWords = []string{"attempt", "tries", "retry", "retrie", "count"}

// lowerer lowercases text into one reusable buffer, so reading a
// file's comments and identifiers for vocabulary allocates nothing for
// ASCII text.
type lowerer struct{ buf []byte }

// lower returns s lowercased as strings.ToLower would, in the buffer,
// valid until the next call.
func (lw *lowerer) lower(s string) []byte {
	lw.buf = lw.buf[:0]
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			// Unicode lowercasing can yield ASCII letters (U+212A
			// KELVIN SIGN becomes k), so non-ASCII text takes the
			// general path.
			lw.buf = append(lw.buf[:0], strings.ToLower(s)...)
			return lw.buf
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lw.buf = append(lw.buf, c)
	}
	return lw.buf
}

// vocabularies matches lowercased text against several word lists in
// one pass: list i sets bit i of the result when one of its words
// occurs in the text, exactly as containsAny would report it.
type vocabularies struct {
	// byFirst holds every word under its first byte.
	byFirst [256][]vocabWord
}

type vocabWord struct {
	w    string
	list uint8 // the bit of the list the word belongs to
}

func newVocabularies(lists ...[]string) *vocabularies {
	v := &vocabularies{}
	for i, words := range lists {
		for _, w := range words {
			v.byFirst[w[0]] = append(v.byFirst[w[0]], vocabWord{w: w, list: 1 << i})
		}
	}
	return v
}

// match returns the lists among want whose words occur in l, stopping
// once every list in want has matched.
func (v *vocabularies) match(l []byte, want uint8) uint8 {
	var got uint8
	for i, c := range l {
		for _, vw := range v.byFirst[c] {
			if want&vw.list != 0 && got&vw.list == 0 && len(l)-i >= len(vw.w) && string(l[i:i+len(vw.w)]) == vw.w {
				got |= vw.list
				if got == want {
					return got
				}
			}
		}
	}
	return got
}

// bit returns list i's bit when set is true, else 0; callers build a
// match's want mask from the flags still unset.
func bit(i uint, set bool) uint8 {
	if set {
		return 1 << i
	}
	return 0
}

// commentVocab and identVocab are the vocabularies comments and
// identifiers are read for.
var (
	commentVocab = newVocabularies(retryCommentWords, pollWords)
	identVocab   = newVocabularies(retryIdentWords, weakIdentWords, pollWords)
)

// commentDirective reports whether raw is a //-comment that
// ast.CommentGroup.Text leaves out as a directive ("//go:generate",
// "//line f.go:1"), by the rule of go/ast's isDirective.
func commentDirective(raw string) bool {
	c, ok := strings.CutPrefix(raw, "//")
	if !ok || c == "" || c[0] == ' ' {
		return false
	}
	if strings.HasPrefix(c, "line ") || strings.HasPrefix(c, "extern ") || strings.HasPrefix(c, "export ") {
		return true
	}
	colon := strings.Index(c, ":")
	if colon <= 0 || colon+1 >= len(c) {
		return false
	}
	for i := 0; i <= colon+1; i++ {
		if i == colon {
			continue
		}
		if b := c[i]; !('a' <= b && b <= 'z' || '0' <= b && b <= '9') {
			return false
		}
	}
	return true
}

// containsAny reports whether the already-lowercased l contains any of
// words. Callers lowercase once and match every list against that one
// string.
func containsAny(l string, words []string) bool {
	for _, w := range words {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

// funcComments returns the comment groups positioned inside fd. The
// file's groups are sorted by position and never overlap, so the ones
// inside fd are one contiguous run, found by binary search.
func funcComments(fd *ast.FuncDecl, fileComments []*ast.CommentGroup) []*ast.CommentGroup {
	lo := sort.Search(len(fileComments), func(i int) bool { return fileComments[i].Pos() >= fd.Pos() })
	hi := lo
	for hi < len(fileComments) && fileComments[hi].End() <= fd.End() {
		hi++
	}
	return fileComments[lo:hi]
}

// fileEvidence reads every function declaration with a body of f, in
// declaration order, emulating a careful single-file read. Only sleeps
// visible in this file count: a direct sleep call, or a call to a
// function of this file whose own body sleeps. Helpers in other files
// are invisible to a single-file reader, the paper's missing-delay FP
// mode (§4.3). Which functions are such helpers is known only after
// every body is read, so each read keeps the names it called before
// finding a sleep, and they are resolved at the end.
func fileEvidence(f *ast.File) []evidence {
	var (
		lw      lowerer
		reads   []funcRead
		callees []string
		helpers = make(map[string]bool)
	)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		r := gatherEvidence(fd, f.Comments, &lw, &callees)
		if r.sleepsDirectly {
			helpers[fd.Name.Name] = true
		}
		reads = append(reads, r)
	}
	evs := make([]evidence, len(reads))
	for i, r := range reads {
		for _, name := range callees[r.callees[0]:r.callees[1]] {
			if r.ev.sleeps {
				break
			}
			r.ev.sleeps = helpers[name]
		}
		evs[i] = r.ev
	}
	return evs
}

// funcRead is one function's evidence before the file's sleep helpers
// are known.
type funcRead struct {
	ev evidence
	// sleepsDirectly reports a sleep call in the body itself, which
	// makes the function a sleep helper for the rest of the file.
	sleepsDirectly bool
	// callees is the range of the file's callee list holding the names
	// this body called while ev.sleeps was unset.
	callees [2]int
}

// gatherEvidence inspects one function declaration plus the file's
// comments; lw is the file's lowercasing buffer, and the names it calls
// before a sleep is found are appended to callees. Every flag only ever
// goes from false to true, so a check whose flag is already set is
// skipped.
func gatherEvidence(fd *ast.FuncDecl, fileComments []*ast.CommentGroup, lw *lowerer, callees *[]string) funcRead {
	var ev evidence
	direct := false
	first := len(*callees)

	// Comments: the doc comment plus every comment group positioned
	// inside the function body. Each comment is matched as written: no
	// vocabulary word contains a comment marker or a line break, so
	// this finds what matching the group's Text would, without building
	// it.
	noteComment := func(cg *ast.CommentGroup) {
		for _, c := range cg.List {
			if ev.commentRetry && ev.pollish {
				return
			}
			if commentDirective(c.Text) {
				continue
			}
			got := commentVocab.match(lw.lower(c.Text), bit(0, !ev.commentRetry)|bit(1, !ev.pollish))
			ev.commentRetry = ev.commentRetry || got&1 != 0
			ev.pollish = ev.pollish || got&2 != 0
		}
	}
	if fd.Doc != nil {
		noteComment(fd.Doc)
	}
	for _, cg := range funcComments(fd, fileComments) {
		noteComment(cg)
	}

	if !ev.pollish && containsAny(strings.ToLower(fd.Name.Name), pollWords) {
		ev.pollish = true
	}
	if fd.Name.Name == "Step" {
		ev.stateMach = true
	}

	var errIdentSeen bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			if ev.identRetry && ev.identRetryWeak && ev.pollish {
				break
			}
			got := identVocab.match(lw.lower(v.Name), bit(0, !ev.identRetry)|bit(1, !ev.identRetryWeak)|bit(2, !ev.pollish))
			ev.identRetry = ev.identRetry || got&1 != 0
			ev.identRetryWeak = ev.identRetryWeak || got&2 != 0
			ev.pollish = ev.pollish || got&4 != 0
		case *ast.BasicLit:
			if !ev.identRetry && v.Kind == token.STRING && containsAny(strings.ToLower(v.Value), retryIdentWords) {
				ev.identRetry = true
			}
		case *ast.ForStmt:
			if !ev.loopErrOnErr && loopHandlesError(v.Body) {
				ev.loopErrOnErr = true
			}
			if !ev.statusLoop && loopSwitchesStatusAndPauses(v.Body) {
				ev.statusLoop = true
			}
			if !ev.capped && boundedLoopCond(v.Cond) {
				ev.capped = true
			}
		case *ast.RangeStmt:
			// Ranging over a fixed collection is inherently bounded.
			if !(ev.loopErrOnErr && ev.capped) && loopHandlesError(v.Body) {
				ev.loopErrOnErr, ev.capped = true, true
			}
		case *ast.IfStmt:
			if !ev.capped && attemptComparison(v.Cond) {
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
			if direct && ev.requeue && ev.pollish && ev.capped {
				break
			}
			name := calleeName(v)
			low := strings.ToLower(name)
			if name == "Sleep" || strings.Contains(low, "sleep") {
				ev.sleeps, direct = true, true
			} else if !ev.sleeps {
				*callees = append(*callees, name)
			}
			if strings.Contains(low, "requeue") || strings.Contains(low, "resubmit") ||
				((name == "Put" || name == "Enqueue" || name == "Submit") && receiverIsQueue(v)) {
				ev.requeue = ev.requeue || errIdentSeen
			}
			if strings.Contains(low, "compareandswap") || strings.Contains(low, "compareandset") {
				ev.pollish = true
			}
			if name == "NewPolicy" || name == "Do" && usesResilience(v) {
				ev.capped = true
				ev.sleeps = true
			}
		case *ast.BinaryExpr:
			if !errIdentSeen && isErrNilCheck(v) {
				errIdentSeen = true
			}
		}
		return true
	})
	return funcRead{ev: ev, sleepsDirectly: direct, callees: [2]int{first, len(*callees)}}
}

// loopSwitchesStatusAndPauses recognizes the error-code retry shape: a
// loop whose body switches on some status value and sleeps in at least
// one branch before the next iteration.
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

// loopHandlesError reports whether a loop body contains an error-nil check
// — the model's rough notion of "checks for exceptions or errors before
// retry" from prompt Q1.
func loopHandlesError(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			if bin, ok := ifs.Cond.(*ast.BinaryExpr); ok && isErrNilCheck(bin) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isErrNilCheck(bin *ast.BinaryExpr) bool {
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

// boundedLoopCond treats "i < max", "i <= max", and "i != max" loop
// conditions as caps.
func boundedLoopCond(cond ast.Expr) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.LSS, token.LEQ, token.NEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// attemptComparison recognizes cap checks like "attempts >= maxAttempts".
func attemptComparison(cond ast.Expr) bool {
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
			return containsAny(strings.ToLower(v.Name), attemptWords)
		case *ast.SelectorExpr:
			return containsAny(strings.ToLower(v.Sel.Name), attemptWords)
		}
		return false
	}
	return mentionsAttempt(bin.X) || mentionsAttempt(bin.Y)
}

// receiverIsQueue reports whether a method call's receiver expression
// looks like a queue ("s.queue.Put(...)").
func receiverIsQueue(call *ast.CallExpr) bool {
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

// calleeName extracts the called function or method name.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// usesResilience reports whether a .Do call is on a resilience policy
// (receiver mentions "policy").
func usesResilience(call *ast.CallExpr) bool {
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
