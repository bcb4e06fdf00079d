package report

// memo.go keeps what Build derives from a memoized corpus run, so a warm
// run over unchanged inputs builds and renders nothing again
// (docs/ARCHITECTURE.md, "Derived once"). The memo is a docMemo, kept
// for the run's first app (core.CorpusRun.Keep): the document built
// from the same apps, compared by the identity of each app's
// identification, dynamic and static results and by its code and name,
// the same IF results (by identity), usage and degradation, and its
// rendered body for the last depth and tail asked for.

import (
	"sync/atomic"

	"wasabi/internal/core"
	"wasabi/internal/llm"
	"wasabi/internal/sast"
)

// docMemo is one document and the run values it was built from.
type docMemo struct {
	apps      []appInputs
	ifRatios  []sast.ExceptionRatio
	ifReports []sast.IFReport
	usage     llm.Usage
	degraded  bool
	doc       *Document
	rendered  atomic.Pointer[rendering]
}

// appInputs is what buildApp reads of one app run: memoized results,
// compared by identity, and the app's code and name.
type appInputs struct {
	id         *core.Identification
	dyn        *core.DynamicResult
	static     *core.StaticResult
	code, name string
}

func inputsOf(ar *core.AppRun) appInputs {
	return appInputs{id: ar.ID, dyn: ar.Dyn, static: ar.Static, code: ar.App.Code, name: ar.App.Name}
}

// rendering is some bytes rendered at one depth, followed by one tail.
type rendering struct {
	depth int
	tail  string
	b     []byte
}

func newDocMemo(cr *core.CorpusRun, doc *Document) *docMemo {
	m := &docMemo{apps: make([]appInputs, len(cr.Apps)), ifRatios: cr.IFRatios, ifReports: cr.IFReports,
		usage: cr.Usage, degraded: cr.Degraded, doc: doc}
	for i := range cr.Apps {
		m.apps[i] = inputsOf(&cr.Apps[i])
	}
	return m
}

// matches reports whether cr is made of the values m's document was
// built from.
func (m *docMemo) matches(cr *core.CorpusRun) bool {
	if len(cr.Apps) != len(m.apps) || cr.Usage != m.usage || cr.Degraded != m.degraded ||
		!sameSlice(cr.IFRatios, m.ifRatios) || !sameSlice(cr.IFReports, m.ifReports) {
		return false
	}
	for i := range cr.Apps {
		if inputsOf(&cr.Apps[i]) != m.apps[i] {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b are one slice: a memoized run's IF
// analysis is the kept result again while its inputs are unchanged.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// body renders the memo's document at depth followed by tail, once per
// depth and tail.
func (m *docMemo) body(depth int, tail string) ([]byte, error) {
	if r := m.rendered.Load(); r != nil && r.depth == depth && r.tail == tail {
		return r.b, nil
	}
	b, err := Render(nil, m.doc, depth, tail)
	if err != nil {
		return nil, err
	}
	m.rendered.Store(&rendering{depth: depth, tail: tail, b: b})
	return b, nil
}
