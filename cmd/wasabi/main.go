// Command wasabi runs the WASABI retry-bug detection workflows over the
// corpus applications.
//
// Usage:
//
//	wasabi [-app HD] [-workflow all|dynamic|static|if] [-workers N] [-v]
//	       [-json] [-corpus DIR]
//	       [-cache-dir DIR] [-cache-bytes N]
//	       [-llm-backends name=sim[:profile];name=http:URL;...]
//	       [-llm-hedge-after DUR]
//	       [-metrics-out m.json] [-trace-out t.json]
//
// With no -app, every corpus application is processed. -workers bounds the
// pipeline's worker pool (0 = one per CPU); output is byte-identical at
// every setting, so -workers 1 merely reproduces the original sequential
// timing.
//
// -corpus points the run at a generated corpus root (cmd/corpusgen,
// docs/CORPUSGEN.md) instead of the built-in seed corpus; -app then
// selects generated codes ("G001", ...).
//
// -json replaces the text report with the canonical schema-versioned JSON
// document (internal/report — the same encoder the wasabid service
// returns), ignoring -workflow and -v.
//
// -cache-dir enables the content-addressed analysis cache with disk
// persistence (docs/SERVICE.md): a second invocation over unchanged
// sources re-reads memoized reviews instead of re-spending LLM tokens,
// and prints identical output. -cache-bytes bounds the in-memory tier.
// Cache statistics go to stderr, so stdout stays byte-identical between
// cold and warm runs.
//
// -llm-backends routes reviews through an ordered backend topology with
// per-backend circuit breakers, a shared retry budget and failover
// (docs/RESILIENCE.md "Routing"): transient faults are retried,
// unanswerable reviews degrade the affected files to static-only
// analysis, and for a topology of built-in simulators stdout stays
// byte-identical at every -workers setting. -llm-hedge-after
// additionally hedges slow calls onto the next healthy backend (live
// topologies only). A chaos drill is a topology too: "sim=sim:heavy"
// for one faulty simulator, "sim=sim:outage-after=40" for a backend
// that dies mid-run, "primary=sim:outage;secondary=sim" for failover.
// With -cache-dir, routed runs use the review cache like any other: a
// cached file needs no delivery, so a warm chaos drill spends nothing.
//
// -metrics-out and -trace-out instrument the run (docs/OBSERVABILITY.md):
// the former writes the metrics snapshot as JSON (its counters section is
// byte-identical at every -workers setting; timings vary), the latter
// writes the stage spans in Chrome trace-event JSON for Perfetto /
// about://tracing. Either flag also prints the end-of-run metrics in
// Prometheus text exposition format (the wasabid /metrics rendering) —
// on stderr, so the deterministic report stream on stdout stays clean.
package main

import (
	"flag"
	"fmt"
	"os"

	"wasabi/internal/apps/corpus"
	"wasabi/internal/cache"
	"wasabi/internal/core"
	"wasabi/internal/corpusgen"
	"wasabi/internal/llm"
	"wasabi/internal/obs"
	"wasabi/internal/oracle"
	"wasabi/internal/report"
)

func main() {
	appCode := flag.String("app", "", "application short code (HD, HB, ...); empty = all")
	corpusRoot := flag.String("corpus", "", "generated corpus root (cmd/corpusgen); empty = built-in seed corpus")
	workflow := flag.String("workflow", "all", "workflow: all, dynamic, static, or if")
	workers := flag.Int("workers", 0, "worker pool size; 0 = one per CPU, 1 = sequential")
	verbose := flag.Bool("v", false, "print per-structure identification details")
	jsonOut := flag.Bool("json", false, "print the canonical JSON report document instead of text")
	cacheDir := flag.String("cache-dir", "", "enable the analysis cache, persisted in this directory (see docs/SERVICE.md)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory cache byte budget (0 = default; needs -cache-dir)")
	backends := flag.String("llm-backends", "",
		"route reviews across an ordered multi-backend topology: \"name=sim[:profile];name=http:URL;...\" (see docs/RESILIENCE.md); empty = no router")
	hedgeAfter := flag.Duration("llm-hedge-after", 0,
		"launch a hedged attempt on the next healthy backend after this much silence (0 = no hedging; needs -llm-backends)")
	metricsOut := flag.String("metrics-out", "", "write the run's metrics snapshot (JSON) to this file")
	traceOut := flag.String("trace-out", "", "write the run's spans (Chrome trace-event JSON) to this file")
	flag.Parse()

	switch *workflow {
	case "all", "dynamic", "static", "if":
	default:
		fmt.Fprintf(os.Stderr, "wasabi: unknown -workflow %q (want all, dynamic, static, or if)\n", *workflow)
		os.Exit(2)
	}

	apps := corpus.Apps()
	if *corpusRoot != "" {
		var err error
		apps, _, err = corpusgen.LoadApps(*corpusRoot)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *appCode != "" {
		selected := apps[:0:0]
		for _, app := range apps {
			if app.Code == *appCode {
				selected = append(selected, app)
			}
		}
		if len(selected) != 1 {
			fmt.Fprintf(os.Stderr, "wasabi: unknown app code %q\n", *appCode)
			os.Exit(2)
		}
		apps = selected
	}
	for _, app := range apps {
		if err := core.VerifySources(app); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	opts := core.DefaultOptions()
	opts.Workers = *workers
	if *backends != "" {
		specs, err := llm.ParseBackends(*backends)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		opts.LLM.Backends = specs
		opts.LLM.HedgeAfter = *hedgeAfter
	} else if *hedgeAfter > 0 {
		fmt.Fprintln(os.Stderr, "wasabi: -llm-hedge-after needs -llm-backends (hedging routes across a topology)")
		os.Exit(2)
	}
	observed := *metricsOut != "" || *traceOut != ""
	if observed {
		opts.Obs = obs.New()
	}
	var ca *cache.Cache
	if *cacheDir != "" {
		var err error
		ca, err = cache.New(cache.Options{Dir: *cacheDir, MaxBytes: *cacheBytes, Metrics: opts.Obs.Reg()})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Cache = ca
	}
	w := core.New(opts)

	// The runner executes identification and both workflows concurrently
	// across apps and merges deterministically; printing below stays in
	// corpus order and honours -workflow.
	cr, err := w.RunCorpus(apps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if ca != nil {
		// Stats go to stderr: stdout must stay byte-identical between a
		// cold and a warm run of the same corpus.
		st := ca.Stats()
		hits, misses := st.Totals()
		fu := w.LLMUsage()
		fmt.Fprintf(os.Stderr, "cache: %d hits, %d misses, %d evictions, %d entries, %d bytes; fresh LLM spend %d calls / %d tokens\n",
			hits, misses, st.Evictions, st.Entries, st.Bytes, fu.Calls, fu.TokensIn)
	}

	if *jsonOut {
		doc, err := report.Marshal(report.Build(cr))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(doc)
		if observed {
			if err := writeArtifacts(opts.Obs, *metricsOut, *traceOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	for _, ar := range cr.Apps {
		id := ar.ID
		fmt.Printf("== %s (%s) ==\n", ar.App.Name, ar.App.Code)
		fmt.Printf("identified %d retry structures (%d keyworded loops, %d structural candidates before filter, %d files too large for the LLM)\n",
			len(id.Structures), id.KeywordedLoops, id.CandidateLoops, len(id.TruncatedFiles))
		if len(id.Degraded) > 0 {
			fmt.Printf("degraded: %d file reviews lost to backend faults (static-only fallback)\n", len(id.Degraded))
			for _, d := range id.Degraded {
				fmt.Printf("  DEGRADED %-40s %s\n", d.File, d.Reason)
			}
		}
		if *verbose {
			for _, s := range id.Structures {
				fmt.Printf("  %-55s %-12s codeql=%-5v llm=%-5v triggers=%d\n",
					s.Coordinator, s.Mechanism, s.FoundBy.CodeQL, s.FoundBy.LLM, len(s.Triplets))
			}
		}

		if *workflow == "all" || *workflow == "dynamic" {
			res := ar.Dyn
			fmt.Printf("dynamic: %d/%d tests cover retry, %d/%d structures tested, plan %d entries, runs %d (naive %d)\n",
				res.TestsCoveringRetry, res.TestsTotal, res.StructuresTested, res.StructuresTotal,
				res.PlanEntries, res.PlannedRuns, res.NaiveRuns)
			printReports(res.Reports)
		}
		if *workflow == "all" || *workflow == "static" {
			st := ar.Static
			fmt.Printf("static (LLM): %d WHEN reports\n", len(st.WhenReports))
			for _, r := range st.WhenReports {
				fmt.Printf("  [%s] %s (%s)\n", r.Kind, r.Coordinator, r.File)
			}
		}
		fmt.Println()
	}

	if *workflow == "all" || *workflow == "if" {
		fmt.Println("== IF-bug retry-ratio analysis (corpus-wide) ==")
		for _, r := range cr.IFRatios {
			if r.Retried > 0 && r.Retried < r.Total {
				fmt.Printf("  %-35s retried %d/%d\n", r.Exception, r.Retried, r.Total)
			}
		}
		for _, rep := range cr.IFReports {
			verb := "not retried"
			if rep.Retried {
				verb = "retried"
			}
			fmt.Printf("  OUTLIER %s %s in %s (%s overall)\n", rep.Exception, verb, rep.Coordinator, rep.Ratio.String())
		}
	}

	if cr.Degraded {
		fmt.Printf("\nRUN DEGRADED: LLM backend outage — LLM-dependent findings under-report; static structural results are complete\n")
	}

	u := cr.Usage
	fmt.Printf("\nLLM usage: %d calls, %.1fK tokens, $%.2f\n", u.Calls, float64(u.TokensIn)/1000, u.CostUSD)

	if observed {
		if err := writeArtifacts(opts.Obs, *metricsOut, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeArtifacts writes the requested observability artifacts and prints
// the metrics in Prometheus text exposition format on stderr — the same
// rendering the wasabid daemon serves at /metrics.
func writeArtifacts(o *obs.Observer, metricsOut, traceOut string) error {
	snap := o.Reg().Snapshot()
	if metricsOut != "" {
		data, err := snap.MarshalIndent()
		if err != nil {
			return fmt.Errorf("marshal metrics: %w", err)
		}
		if err := os.WriteFile(metricsOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if err := o.Trc().WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return obs.WriteText(os.Stderr, snap)
}

func printReports(reports []oracle.Report) {
	sorted := append([]oracle.Report(nil), reports...)
	core.SortReports(sorted)
	for _, r := range sorted {
		fmt.Printf("  [%s] %s — %s (test %s)\n", r.Kind, r.Coordinator, r.Details, r.Test)
	}
}
