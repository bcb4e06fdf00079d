package sast

import (
	"fmt"
	"slices"
	"strings"
)

// ExceptionRatio summarizes corpus-wide retry policy for one exception
// class: in how many retry loops it can be thrown and in how many of those
// it is actually retried (§3.2.2).
type ExceptionRatio struct {
	Exception string
	Retried   int
	Total     int
	RetriedIn []string // coordinators retrying the exception
	SkippedIn []string // coordinators not retrying it
}

// Ratio returns the application-wide retry ratio R_E / N_E.
func (r ExceptionRatio) Ratio() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Retried) / float64(r.Total)
}

// String renders "retried 17/20".
func (r ExceptionRatio) String() string {
	return fmt.Sprintf("%s retried %d/%d", r.Exception, r.Retried, r.Total)
}

// IFReport flags one outlier loop whose retry-or-not decision for an
// exception disagrees with the rest of the codebase.
type IFReport struct {
	Exception   string
	Coordinator string
	// Retried reports the outlier's behaviour: true means the exception
	// is retried here although it mostly is not (a possible
	// "non-recoverable error retried" bug); false means the inverse.
	Retried bool
	Ratio   ExceptionRatio
}

// RatioOptions tunes the outlier thresholds.
type RatioOptions struct {
	// MinLoops is the minimum N_E for an exception to be considered.
	MinLoops int
	// HighRatio: ratios >= HighRatio (but < 1) flag the not-retried
	// minority. Ratios <= 1-HighRatio (but > 0) flag the retried
	// minority. The paper uses 2/3.
	HighRatio float64
}

// DefaultRatioOptions mirrors the paper's thresholds.
func DefaultRatioOptions() RatioOptions {
	return RatioOptions{MinLoops: 3, HighRatio: 2.0 / 3.0}
}

// RatioAnalysis computes per-exception retry ratios over the keyword-
// filtered retry loops of all analyzed applications and reports
// outliers. Each analysis contributes its retry table, built once per
// Analysis, so a warm job only merges one table per application. The
// ratios may share their coordinator lists with those tables: callers
// must not mutate them.
func RatioAnalysis(analyses []*Analysis, opts RatioOptions) ([]ExceptionRatio, []IFReport) {
	ratios := mergeTables(analyses)
	var reports []IFReport
	for _, r := range ratios {
		if r.Total < opts.MinLoops || r.Retried == 0 || r.Retried == r.Total {
			continue
		}
		switch ratio := r.Ratio(); {
		case ratio >= opts.HighRatio:
			for _, c := range r.SkippedIn {
				reports = append(reports, IFReport{Exception: r.Exception, Coordinator: c, Retried: false, Ratio: r})
			}
		case ratio <= 1-opts.HighRatio:
			for _, c := range r.RetriedIn {
				reports = append(reports, IFReport{Exception: r.Exception, Coordinator: c, Retried: true, Ratio: r})
			}
		}
	}
	return ratios, reports
}

// retryTable returns the analysis's retry table: one ExceptionRatio per
// exception thrown in its retry loops, sorted by exception, each with
// its sorted coordinator lists. The analysis never changes once built,
// so the table is built on first use and shared by every later job;
// callers must not mutate it.
func (a *Analysis) retryTable() []ExceptionRatio {
	a.tableOnce.Do(func() {
		byExc := make(map[string]*ExceptionRatio)
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
		a.table = make([]ExceptionRatio, 0, len(byExc))
		for _, r := range byExc {
			slices.Sort(r.RetriedIn)
			slices.Sort(r.SkippedIn)
			a.table = append(a.table, *r)
		}
		slices.SortFunc(a.table, byException)
	})
	return a.table
}

func byException(x, y ExceptionRatio) int { return strings.Compare(x.Exception, y.Exception) }

// mergeTables merges the analyses' retry tables into one, sorted by
// exception, walking the sorted tables side by side. An exception that
// only one analysis throws keeps that table's entry as it is; the
// others get merged, sorted lists.
func mergeTables(analyses []*Analysis) []ExceptionRatio {
	tables := make([][]ExceptionRatio, 0, len(analyses))
	n := 0
	for _, a := range analyses {
		if t := a.retryTable(); len(t) > 0 {
			tables = append(tables, t)
			n += len(t)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]ExceptionRatio, 0, n)
	heads := make([]ExceptionRatio, 0, len(tables))
	for {
		least, found := "", false
		for _, t := range tables {
			if len(t) > 0 && (!found || t[0].Exception < least) {
				least, found = t[0].Exception, true
			}
		}
		if !found {
			return out
		}
		heads = heads[:0]
		for i, t := range tables {
			if len(t) > 0 && t[0].Exception == least {
				heads = append(heads, t[0])
				tables[i] = t[1:]
			}
		}
		if len(heads) == 1 {
			out = append(out, heads[0])
		} else {
			out = append(out, merge(heads))
		}
	}
}

// merge sums one exception's entries from several tables and merges
// their sorted coordinator lists, each allocated once at its final
// size.
func merge(run []ExceptionRatio) ExceptionRatio {
	r := ExceptionRatio{Exception: run[0].Exception}
	for _, o := range run {
		r.Retried += o.Retried
		r.Total += o.Total
	}
	if r.Retried > 0 {
		r.RetriedIn = make([]string, 0, r.Retried)
	}
	if r.Total > r.Retried {
		r.SkippedIn = make([]string, 0, r.Total-r.Retried)
	}
	for _, o := range run {
		r.RetriedIn = mergeSorted(r.RetriedIn, o.RetriedIn)
		r.SkippedIn = mergeSorted(r.SkippedIn, o.SkippedIn)
	}
	return r
}

// mergeSorted merges the sorted src into the sorted dst, which has the
// capacity for both, from the back.
func mergeSorted(dst, src []string) []string {
	i, j := len(dst)-1, len(src)-1
	dst = dst[:len(dst)+len(src)]
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > src[j] {
			dst[k], i = dst[i], i-1
		} else {
			dst[k], j = src[j], j-1
		}
	}
	return dst
}
