package llm

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"sync"
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

// The word lists text is matched against, one bit each in a match, in
// the order of vocabLists. The first five are the vocabularies above;
// the rest are the words single checks look for in a call's or an
// operand's name.
const (
	listRetryComment uint16 = 1 << iota
	listRetryIdent
	listWeakIdent
	listPoll
	listAttempt
	listSleep   // a call that pauses
	listRequeue // a call that re-submits
	listCAS     // a compare-and-swap call
	listState   // a switch over a state
	listQueue   // a queue receiver
	listPolicy  // a resilience policy receiver
)

// vocabLists are the word lists, list i under bit i.
var vocabLists = [][]string{
	retryCommentWords,
	retryIdentWords,
	weakIdentWords,
	pollWords,
	attemptWords,
	{"sleep"},
	{"requeue", "resubmit"},
	{"compareandswap", "compareandset"},
	{"state"},
	{"queue"},
	{"policy"},
}

// vocab returns the automaton that matches text against every word list
// at once. It is built on first use, so a process that reads no file for
// evidence, such as a daemon restarted over a populated cache, does not
// build it.
var vocab = sync.OnceValue(func() *vocabularies { return newVocabularies(vocabLists...) })

// vocabularies is an Aho-Corasick automaton over the words of several
// lists, with its failure links folded into a full transition table, so
// one pass over a text finds every list one of whose words occurs in the
// lowercased text, as strings.Contains over strings.ToLower of the text
// would find it, word by word. It reads ASCII text as it is, folding
// upper case into lower through its byte classes, so matching allocates
// nothing.
type vocabularies struct {
	// class maps a byte to its column of the table: 0 for a byte no
	// word holds, an upper-case ASCII letter to its lower case's column.
	class [256]uint8
	// table holds a row per state, a column per class. An entry is the
	// row offset of the next state in its low 16 bits and the lists of
	// the words ending there in its high 16, so a step is one load.
	table []uint32
}

// newVocabularies builds the automaton of lists: a match sets bit i for
// lists[i]. Every word must be lower-case ASCII.
func newVocabularies(lists ...[]string) *vocabularies {
	v := &vocabularies{}
	ncol := 1
	for _, words := range lists {
		for _, w := range words {
			for i := 0; i < len(w); i++ {
				c := w[i]
				if c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
					panic("llm: vocabulary word " + w + " is not lower-case ASCII")
				}
				if v.class[c] == 0 {
					v.class[c] = uint8(ncol)
					ncol++
				}
			}
		}
	}
	for c := 'A'; c <= 'Z'; c++ {
		v.class[c] = v.class[c+'a'-'A']
	}
	// The trie, state 0 its root; a missing edge is 0.
	next := make([]int, ncol)
	output := make([]uint16, 1)
	for i, words := range lists {
		for _, w := range words {
			s := 0
			for j := 0; j < len(w); j++ {
				e := s*ncol + int(v.class[w[j]])
				if next[e] == 0 {
					next[e] = len(output)
					next = append(next, make([]int, ncol)...)
					output = append(output, 0)
				}
				s = next[e]
			}
			output[s] |= 1 << i
		}
	}
	// Breadth first, a missing edge takes the failure state's edge, and
	// a state outputs what its failure state does.
	fail := make([]int, len(output))
	var queue []int
	for col := 1; col < ncol; col++ {
		if t := next[col]; t != 0 {
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for col := 1; col < ncol; col++ {
			e := s*ncol + col
			f := next[fail[s]*ncol+col]
			if t := next[e]; t != 0 {
				fail[t] = f
				output[t] |= output[f]
				queue = append(queue, t)
			} else {
				next[e] = f
			}
		}
	}
	if len(next) > 1<<16 {
		panic("llm: vocabulary automaton too large")
	}
	v.table = make([]uint32, len(next))
	for e, t := range next {
		v.table[e] = uint32(t*ncol) | uint32(output[t])<<16
	}
	return v
}

// match returns the lists among want one of whose words occurs in s
// lowercased, stopping once every list in want has matched.
func (v *vocabularies) match(s string, want uint16) uint16 { return v.scan(s, want, false) }

// scan is match over s, or over s already lowercased by strings.ToLower
// when lowered is set. Text that is not ASCII is lowercased that way
// before it is read, since Unicode case mapping can yield ASCII letters
// (U+212A KELVIN SIGN becomes k); what remains non-ASCII matches no
// word.
func (v *vocabularies) scan(s string, want uint16, lowered bool) uint16 {
	var got uint16
	row := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf && !lowered {
			return v.scan(strings.ToLower(s), want, true)
		}
		e := v.table[row+int(v.class[c])]
		row = int(e & 0xffff)
		if o := uint16(e>>16) & want; o != 0 {
			if got |= o; got == want {
				break
			}
		}
	}
	return got
}

// has reports whether a word of list occurs in s lowercased.
func (v *vocabularies) has(s string, list uint16) bool { return v.match(s, list) != 0 }

// unless returns list while its flag is unset, else nothing: callers
// build a match's want from the flags still unset.
func unless(set bool, list uint16) uint16 {
	if set {
		return 0
	}
	return list
}

// hasLowerSuffix reports whether strings.ToLower(s) ends in suffix, a
// lower-case ASCII word, without lowercasing ASCII text.
func hasLowerSuffix(s, suffix string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return strings.HasSuffix(strings.ToLower(s), suffix)
		}
	}
	return len(s) >= len(suffix) && strings.EqualFold(s[len(s)-len(suffix):], suffix)
}

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
		r       reader
		reads   []funcRead
		helpers = make(map[string]bool)
	)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fr := r.gather(fd, f.Comments)
		if fr.sleepsDirectly {
			helpers[fd.Name.Name] = true
		}
		reads = append(reads, fr)
	}
	evs := make([]evidence, len(reads))
	for i, fr := range reads {
		for _, name := range r.callees[fr.callees[0]:fr.callees[1]] {
			if fr.ev.sleeps {
				break
			}
			fr.ev.sleeps = helpers[name]
		}
		evs[i] = fr.ev
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

// reader reads one file's functions for evidence, each in one walk of
// its body (an ast.Visitor). Every flag only ever goes from false to
// true, so a check whose flag is already set is skipped.
type reader struct {
	// callees holds, for every function read, the names it called
	// before a sleep was found.
	callees []string

	// The function being read.
	ev           evidence
	direct       bool // a sleep call in the body itself
	errIdentSeen bool // an error-nil comparison was seen
	depth        int  // of the last node visited that is still open
	// loops are the for and range statements open at the node being
	// visited, innermost last. What a loop's body holds is read off the
	// counts below: how many of each were seen since the body began.
	loops                       []openLoop
	errChecks, switches, sleeps int
}

// openLoop is one loop whose body the walk has not left yet.
type openLoop struct {
	depth int
	body  *ast.BlockStmt
	rng   bool // a range statement, whose iterations are bounded
	// The reader's counts when the body began.
	errChecks, switches, sleeps int
}

// gather reads one function declaration, with the file's comments.
func (r *reader) gather(fd *ast.FuncDecl, fileComments []*ast.CommentGroup) funcRead {
	r.ev, r.direct, r.errIdentSeen = evidence{}, false, false
	first := len(r.callees)

	// Comments: the doc comment plus every comment group positioned
	// inside the function body. Each comment is matched as written: no
	// vocabulary word contains a comment marker or a line break, so
	// this finds what matching the group's Text would, without building
	// it.
	if fd.Doc != nil {
		r.noteComments(fd.Doc)
	}
	for _, cg := range funcComments(fd, fileComments) {
		r.noteComments(cg)
	}

	if !r.ev.pollish && vocab().has(fd.Name.Name, listPoll) {
		r.ev.pollish = true
	}
	if fd.Name.Name == "Step" {
		r.ev.stateMach = true
	}
	ast.Walk(r, fd.Body)
	return funcRead{ev: r.ev, sleepsDirectly: r.direct, callees: [2]int{first, len(r.callees)}}
}

func (r *reader) noteComments(cg *ast.CommentGroup) {
	for _, c := range cg.List {
		if r.ev.commentRetry && r.ev.pollish {
			return
		}
		if commentDirective(c.Text) {
			continue
		}
		got := vocab().match(c.Text, unless(r.ev.commentRetry, listRetryComment)|unless(r.ev.pollish, listPoll))
		r.ev.commentRetry = r.ev.commentRetry || got&listRetryComment != 0
		r.ev.pollish = r.ev.pollish || got&listPoll != 0
	}
}

// Visit reads one node of a function body; a nil node closes the last
// node visited that is still open. Identifiers and literals have no
// children, so they are not walked into and get no closing visit.
func (r *reader) Visit(n ast.Node) ast.Visitor {
	ev := &r.ev
	switch v := n.(type) {
	case nil:
		if k := len(r.loops) - 1; k >= 0 && r.loops[k].depth == r.depth {
			r.closeLoop(r.loops[k])
			r.loops = r.loops[:k]
		}
		r.depth--
		return nil
	case *ast.Ident:
		if want := unless(ev.identRetry, listRetryIdent) | unless(ev.identRetryWeak, listWeakIdent) | unless(ev.pollish, listPoll); want != 0 {
			got := vocab().match(v.Name, want)
			ev.identRetry = ev.identRetry || got&listRetryIdent != 0
			ev.identRetryWeak = ev.identRetryWeak || got&listWeakIdent != 0
			ev.pollish = ev.pollish || got&listPoll != 0
		}
		return nil
	case *ast.BasicLit:
		if !ev.identRetry && v.Kind == token.STRING && vocab().has(v.Value, listRetryIdent) {
			ev.identRetry = true
		}
		return nil
	case *ast.BlockStmt:
		if k := len(r.loops) - 1; k >= 0 && r.loops[k].body == v {
			r.loops[k].errChecks, r.loops[k].switches, r.loops[k].sleeps = r.errChecks, r.switches, r.sleeps
		}
	case *ast.ForStmt:
		if !ev.loopErrOnErr || !ev.statusLoop {
			r.loops = append(r.loops, openLoop{depth: r.depth + 1, body: v.Body})
		}
		if !ev.capped && boundedLoopCond(v.Cond) {
			ev.capped = true
		}
	case *ast.RangeStmt:
		if !ev.loopErrOnErr || !ev.capped {
			r.loops = append(r.loops, openLoop{depth: r.depth + 1, body: v.Body, rng: true})
		}
	case *ast.IfStmt:
		if !ev.capped && attemptComparison(v.Cond) {
			ev.capped = true
		}
		if len(r.loops) > 0 {
			if bin, ok := v.Cond.(*ast.BinaryExpr); ok && isErrNilCheck(bin) {
				r.errChecks++
			}
		}
	case *ast.SwitchStmt:
		r.switches++
		if tag, ok := v.Tag.(*ast.Ident); ok && vocab().has(tag.Name, listState) {
			ev.stateMach = true
		}
		if sel, ok := v.Tag.(*ast.SelectorExpr); ok && vocab().has(sel.Sel.Name, listState) {
			ev.stateMach = true
		}
	case *ast.CallExpr:
		// Sleeps count for the open loops even once the function is
		// known to sleep.
		if r.direct && (len(r.loops) == 0 || ev.statusLoop) && ev.requeue && ev.pollish && ev.capped {
			break
		}
		name := calleeName(v)
		got := vocab().match(name, listSleep|unless(ev.requeue, listRequeue)|unless(ev.pollish, listCAS))
		if got&listSleep != 0 {
			ev.sleeps, r.direct = true, true
			r.sleeps++
		} else if !ev.sleeps {
			r.callees = append(r.callees, name)
		}
		if got&listRequeue != 0 || !ev.requeue && (name == "Put" || name == "Enqueue" || name == "Submit") && receiverIsQueue(v) {
			ev.requeue = ev.requeue || r.errIdentSeen
		}
		if got&listCAS != 0 {
			ev.pollish = true
		}
		if name == "NewPolicy" || name == "Do" && usesResilience(v) {
			ev.capped = true
			ev.sleeps = true
		}
	case *ast.BinaryExpr:
		if !r.errIdentSeen && isErrNilCheck(v) {
			r.errIdentSeen = true
		}
	}
	r.depth++
	return r
}

// closeLoop sets the flags a loop's body earns, once the walk leaves
// it: a body that checks an error re-checks it on the next iteration
// (prompt Q1's "checks for exceptions or errors before retry"), and a
// for body that switches on a status and sleeps is the error-code retry
// shape.
func (r *reader) closeLoop(l openLoop) {
	handlesErr := r.errChecks > l.errChecks
	if l.rng {
		// Ranging over a fixed collection is inherently bounded.
		if handlesErr {
			r.ev.loopErrOnErr, r.ev.capped = true, true
		}
		return
	}
	r.ev.loopErrOnErr = r.ev.loopErrOnErr || handlesErr
	r.ev.statusLoop = r.ev.statusLoop || r.switches > l.switches && r.sleeps > l.sleeps
}

func isErrNilCheck(bin *ast.BinaryExpr) bool {
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	isErrName := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.Ident:
			return hasLowerSuffix(v.Name, "err") || v.Name == "e"
		case *ast.SelectorExpr:
			return hasLowerSuffix(v.Sel.Name, "err")
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
			return vocab().has(v.Name, listAttempt)
		case *ast.SelectorExpr:
			return vocab().has(v.Sel.Name, listAttempt)
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
		return vocab().has(x.Name, listQueue)
	case *ast.SelectorExpr:
		return vocab().has(x.Sel.Name, listQueue)
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
		return vocab().has(x.Name, listPolicy)
	case *ast.SelectorExpr:
		return vocab().has(x.Sel.Name, listPolicy)
	}
	return false
}
