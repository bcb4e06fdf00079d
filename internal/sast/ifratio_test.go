package sast

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"wasabi/internal/apps/corpus"
)

// refRatioAnalysis is RatioAnalysis as one pass over every loop of
// every analysis: the reference the table merge must equal.
func refRatioAnalysis(analyses []*Analysis, opts RatioOptions) ([]ExceptionRatio, []IFReport) {
	byExc := make(map[string]*ExceptionRatio)
	for _, a := range analyses {
		for _, loop := range a.Loops {
			for exc, retried := range loop.ThrownHere {
				r := byExc[exc]
				if r == nil {
					r = &ExceptionRatio{Exception: exc}
					byExc[exc] = r
				}
				r.Total++
				if retried {
					r.Retried++
					r.RetriedIn = append(r.RetriedIn, loop.Coordinator)
				} else {
					r.SkippedIn = append(r.SkippedIn, loop.Coordinator)
				}
			}
		}
	}
	var ratios []ExceptionRatio
	var reports []IFReport
	excs := make([]string, 0, len(byExc))
	for e := range byExc {
		excs = append(excs, e)
	}
	sort.Strings(excs)
	for _, e := range excs {
		r := *byExc[e]
		sort.Strings(r.RetriedIn)
		sort.Strings(r.SkippedIn)
		ratios = append(ratios, r)
		if r.Total < opts.MinLoops || r.Retried == 0 || r.Retried == r.Total {
			continue
		}
		switch ratio := r.Ratio(); {
		case ratio >= opts.HighRatio:
			for _, c := range r.SkippedIn {
				reports = append(reports, IFReport{Exception: e, Coordinator: c, Retried: false, Ratio: r})
			}
		case ratio <= 1-opts.HighRatio:
			for _, c := range r.RetriedIn {
				reports = append(reports, IFReport{Exception: e, Coordinator: c, Retried: true, Ratio: r})
			}
		}
	}
	return ratios, reports
}

func seedCorpusAnalyses(t *testing.T) []*Analysis {
	t.Helper()
	var out []*Analysis
	for _, app := range corpus.Apps() {
		a, err := AnalyzeDir(app.Dir)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestRatioAnalysisMatchesReference compares the merged tables with the
// one-pass reference over every prefix and suffix of the seed corpus,
// an app given twice, and no app, under the default and a looser
// threshold.
func TestRatioAnalysisMatchesReference(t *testing.T) {
	all := seedCorpusAnalyses(t)
	sets := [][]*Analysis{nil, {all[0], all[0]}}
	for i := 1; i <= len(all); i++ {
		sets = append(sets, all[:i], all[len(all)-i:])
	}
	for _, opts := range []RatioOptions{DefaultRatioOptions(), {MinLoops: 1, HighRatio: 0.5}} {
		for _, set := range sets {
			gotR, gotF := RatioAnalysis(set, opts)
			wantR, wantF := refRatioAnalysis(set, opts)
			if !reflect.DeepEqual(gotR, wantR) || !reflect.DeepEqual(gotF, wantF) {
				t.Fatalf("%d apps, %+v: RatioAnalysis differs from the reference\ngot  %+v\n     %+v\nwant %+v\n     %+v",
					len(set), opts, gotR, gotF, wantR, wantF)
			}
		}
	}
}

// TestRetryTableBuiltOnce: an analysis's table is built on first use
// and shared afterwards, also by concurrent jobs (run under -race by
// make race).
func TestRetryTableBuiltOnce(t *testing.T) {
	a := analyzeHDFS(t)
	var wg sync.WaitGroup
	tables := make([][]ExceptionRatio, 4)
	for g := range tables {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tables[g] = a.retryTable()
		}(g)
	}
	wg.Wait()
	for _, tab := range tables {
		if len(tab) == 0 || &tab[0] != &tables[0][0] {
			t.Fatal("concurrent retryTable calls returned different tables")
		}
	}
	if n := testing.AllocsPerRun(20, func() { a.retryTable() }); n != 0 {
		t.Fatalf("a repeated retryTable allocates %v objects, want 0", n)
	}
}
