// memo.go keeps what a job derives from values the cache and the
// snapshot store already hold, so a warm job over unchanged inputs
// derives none of it again (docs/ARCHITECTURE.md, "Derived once").
//
// Each memo is kept on the immutable value it derives from and is
// validated by the identity of its inputs before reuse, never by a key
// string alone:
//
//   - appMemo, kept on the app's snapshot (source.Snapshot.Keep): the
//     span names of the app's stages and file reviews, for one app
//     code;
//   - identMemo, on the appMemo: identify's merged identification, for
//     one *sast.Analysis and one review entry per file, compared by
//     pointer (cache.Review hands out its immutable entry, and a miss
//     or a degraded review always comes back in a review of its own,
//     so neither can match);
//   - on the identMemo: the locations, the WHEN reports with their
//     per-kind counts, the dynamic key (cache.DynamicKeys), the dynamic
//     result for one cached dynamic run, the IF analysis of a run this
//     app comes first in, for one ordered list of analyses and one set
//     of ratio options, and one value a consumer keeps for such runs
//     (CorpusRun.Keep, report.Build's document), which its keeper
//     validates.
//
// A memo miss runs the code a memo-free run runs and stores the
// result, so there is one derivation, not two. Every counter and span
// of a job is still recorded on every job; only the derivations are
// reused.
package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/fault"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/sast"
	"wasabi/internal/source"
)

// appMemo is what the pipeline derives from one app's snapshot.
type appMemo struct {
	app   string
	names spanNames
	ident atomic.Pointer[identMemo]
	// tokens is the app's core_app_llm_tokens_total series in the last
	// registry that asked for it.
	tokens atomic.Pointer[registered]
}

// spanNames are the names of one app's spans.
type spanNames struct {
	app, identify, dynamic, static string
	// reviews names each file's review span, in snapshot order.
	reviews []string
}

// registered is one counter series of one registry.
type registered struct {
	reg *obs.Registry
	c   *obs.Counter
}

// appMemoOf returns the memo kept on snap for app, deriving the span
// names when snap keeps none for this app yet.
func appMemoOf(app corpus.App, snap *source.Snapshot) *appMemo {
	if m, ok := snap.Memo().(*appMemo); ok && m.app == app.Code {
		return m
	}
	m := &appMemo{app: app.Code, names: spanNames{
		app:      "app:" + app.Code,
		identify: "identify:" + app.Code,
		dynamic:  "dynamic:" + app.Code,
		static:   "static:" + app.Code,
		reviews:  make([]string, len(snap.Files)),
	}}
	for i, f := range snap.Files {
		m.names.reviews[i] = "review:" + f.Name
	}
	snap.Keep(m)
	return m
}

// tokenCounter returns the app's core_app_llm_tokens_total series in
// reg, looking it up only when reg is not the registry it last served.
func (m *appMemo) tokenCounter(reg *obs.Registry) *obs.Counter {
	if r := m.tokens.Load(); r != nil && r.reg == reg {
		return r.c
	}
	c := reg.Counter("core_app_llm_tokens_total", "app", m.app)
	m.tokens.Store(&registered{reg: reg, c: c})
	return c
}

// identMemo is one identification and what is derived from it.
type identMemo struct {
	// analysis and reviews are the inputs, compared by identity.
	analysis *sast.Analysis
	reviews  []*llm.FileReview
	app      string
	names    *spanNames
	id       *Identification
	locs     []fault.Location
	// dynKeys is the app's dynamic key over locs.
	dynKeys cache.DynamicKeys
	// static is the app's WHEN-bug result, derived on first use.
	staticOnce sync.Once
	static     *StaticResult
	kinds      []kindCount
	dyn        atomic.Pointer[dynMemo]
	// kept is the value a consumer kept for runs this app comes first
	// in (CorpusRun.Keep).
	kept atomic.Pointer[keptValue]
	// ratios is the last IF analysis of a run whose first app this is.
	ratios atomic.Pointer[ratioMemo]
}

// kindCount is how many WHEN reports of one kind an app has.
type kindCount struct {
	kind string
	n    int64
}

// identification returns the memoized identification when it was
// merged from the same analysis and the same review entries, and
// otherwise merges afresh and keeps the result.
func (m *appMemo) identification(snap *source.Snapshot, analysis *sast.Analysis, reviews []*llm.FileReview) *Identification {
	if im := m.ident.Load(); im != nil && im.analysis == analysis && slices.Equal(im.reviews, reviews) {
		return im.id
	}
	id := merge(m.app, snap, analysis, reviews)
	im := &identMemo{analysis: analysis, reviews: reviews, app: m.app, names: &m.names, id: id, locs: id.Locations()}
	id.memo = im
	m.ident.Store(im)
	return id
}

// memoFor returns id's memo when id is the identification the memo
// holds, identified for app, and nil otherwise: no memo, a copy of a
// memoized identification (which a caller may have changed), or a
// caller pairing it with another app.
func (id *Identification) memoFor(app corpus.App) *identMemo {
	if id.memo != nil && id.memo.id == id && id.memo.app == app.Code {
		return id.memo
	}
	return nil
}

// staticResult returns the memoized WHEN-bug result and its per-kind
// counts, deriving them on first use.
func (im *identMemo) staticResult() (*StaticResult, []kindCount) {
	im.staticOnce.Do(func() { im.static, im.kinds = deriveStatic(im.app, im.id.Reviews) })
	return im.static, im.kinds
}

// dynMemo is one dynamic result and the cached run it was built from.
type dynMemo struct {
	run   cache.DynamicRun
	tests int
	res   *DynamicResult
}

// sameRun reports whether a and b are one cached dynamic run: equal
// statistics and the same report slice. A DynamicResult is a pure
// function of these, so equal ones build equal results.
func sameRun(a, b *cache.DynamicRun) bool {
	return len(a.Reports) == len(b.Reports) && (len(a.Reports) == 0 || &a.Reports[0] == &b.Reports[0]) &&
		a.TestsCoveringRetry == b.TestsCoveringRetry && a.StructuresTested == b.StructuresTested &&
		a.StrippedOverrides == b.StrippedOverrides && a.PlanEntries == b.PlanEntries &&
		a.NaiveRuns == b.NaiveRuns && a.PlannedRuns == b.PlannedRuns && a.InjectionRunsFailed == b.InjectionRunsFailed
}

// dynamicResult returns the memoized dynamic result when it was built
// from the same run for a suite of as many tests, and otherwise builds
// it and keeps it.
func (im *identMemo) dynamicResult(run *cache.DynamicRun, tests int) *DynamicResult {
	if d := im.dyn.Load(); d != nil && d.tests == tests && sameRun(&d.run, run) {
		return d.res
	}
	res := newDynamicResult(im.app, im.id, run, tests)
	im.dyn.Store(&dynMemo{run: *run, tests: tests, res: res})
	return res
}

// keptValue is a value a consumer keeps for later runs (CorpusRun.Keep).
type keptValue struct{ v any }

// Kept returns the value Keep last kept for a run with cr's first app's
// memoized identification, or nil when none is kept or that
// identification is not memoized. A kept value is shared by later runs:
// its keeper validates it against the run at hand before using it, and
// no one may mutate it.
func (cr *CorpusRun) Kept() any {
	if len(cr.Apps) == 0 {
		return nil
	}
	if im := cr.Apps[0].ID.memoFor(cr.Apps[0].App); im != nil {
		if k := im.kept.Load(); k != nil {
			return k.v
		}
	}
	return nil
}

// Keep keeps v on cr's first app's memoized identification, replacing
// what was kept there, when every app of cr has a memoized
// identification. A run with one no memo holds (a copy a caller may
// change) keeps nothing. report.Build keeps its document there.
func (cr *CorpusRun) Keep(v any) {
	for i := range cr.Apps {
		if cr.Apps[i].ID.memoFor(cr.Apps[i].App) == nil {
			return
		}
	}
	if len(cr.Apps) > 0 {
		cr.Apps[0].ID.memo.kept.Store(&keptValue{v})
	}
}

// ratioMemo is one IF analysis and the analyses, in order, and options
// it ran over.
type ratioMemo struct {
	analyses []*sast.Analysis
	opts     sast.RatioOptions
	ratios   []sast.ExceptionRatio
	reports  []sast.IFReport
}

// ratioAnalysis is sast.RatioAnalysis over ids' analyses, kept on the
// first identification's memo while the analyses, in order, and opts
// are the same.
func ratioAnalysis(ids []*Identification, opts sast.RatioOptions) ([]sast.ExceptionRatio, []sast.IFReport) {
	var im *identMemo
	if len(ids) > 0 && ids[0].memo != nil && ids[0].memo.id == ids[0] {
		im = ids[0].memo
		if r := im.ratios.Load(); r != nil && r.opts == opts && len(r.analyses) == len(ids) && sameAnalyses(r.analyses, ids) {
			return r.ratios, r.reports
		}
	}
	analyses := make([]*sast.Analysis, len(ids))
	for i, id := range ids {
		analyses[i] = id.Analysis
	}
	ratios, reports := sast.RatioAnalysis(analyses, opts)
	if im != nil {
		im.ratios.Store(&ratioMemo{analyses: analyses, opts: opts, ratios: ratios, reports: reports})
	}
	return ratios, reports
}

// sameAnalyses reports whether ids hold analyses, in order.
func sameAnalyses(analyses []*sast.Analysis, ids []*Identification) bool {
	for i, id := range ids {
		if id.Analysis != analyses[i] {
			return false
		}
	}
	return true
}
