// Command bench is the repository's benchmark. It builds nothing itself:
// bench/run.sh builds cmd/wasabid and this program from the checkout and
// runs it from the repository root.
//
// It drives wasabid as a separate process over its public HTTP API
// (POST /v1/analyze, GET /v1/jobs/{id}, /healthz, /metrics) with a closed
// loop of at most two clients, checks every report against a reference
// digest, and prints the end-to-end metrics of one workload or of all of
// them. The last line of a single-workload run is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"job_ms_p50":{"value":…,"unit":"ms"},…}}
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|DIR]
//	bash bench/run.sh -repeat N -out SET.json [-workload NAME] [-seed N] [-seconds S]
//	bash bench/run.sh -agree A.json B.json
//
// -trace 1 (or a directory) runs the traced variant instead: the same
// daemon run timed from the client side, then an in-process replay of
// the workload through each layer's public functions with a span around
// every call, printing per-layer metrics and writing a Chrome trace per
// workload. bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run: warm-corpus, cold-gen, edit-app or restart-warm; empty runs all four")
	seed := flag.Uint64("seed", defaultSeed, "seed of the generated trees and the edit order")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := flag.String("trace", "0", "0: untraced run with end-to-end metrics; 1: traced run with per-layer metrics, traces under the work directory; any other value: traced run writing traces to that directory")
	repeat := flag.Int("repeat", 0, "run the selected workloads this many rounds with seeds seed, seed+1, …, and write every run with each metric's median and quartiles to -out")
	out := flag.String("out", "", "file -repeat writes its set of runs to")
	agree := flag.Bool("agree", false, "compare two -repeat sets given as arguments, A.json B.json, against the end-to-end bounds")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-agree takes two set files, got %d arguments", flag.NArg()))
		}
		ok, err := agreeSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	selected := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fail(err)
		}
		selected = []workload{w}
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("-seconds must be positive"))
	}
	if *repeat > 0 && (*out == "" || *trace != "0") {
		fail(fmt.Errorf("-repeat needs -out and an untraced run"))
	}

	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	cfg := config{
		root:       root,
		seed:       *seed,
		seconds:    time.Duration(*seconds * float64(time.Second)),
		setups:     9,
		minSamples: minSamples(0.9),
	}
	if cfg.wasabid, err = filepath.Abs(wasabidPath); err != nil {
		fail(err)
	}
	if _, err := os.Stat(cfg.wasabid); err != nil {
		fail(fmt.Errorf("wasabid binary: %w (build it with bench/run.sh)", err))
	}
	workDir, err := filepath.Abs(workPath)
	if err != nil {
		fail(err)
	}
	switch *trace {
	case "0":
	case "1":
		cfg.traceDir = filepath.Join(workDir, "traces")
	default:
		if cfg.traceDir, err = filepath.Abs(*trace); err != nil {
			fail(err)
		}
	}
	if cfg.traceDir != "" {
		// Per-layer numbers need no set-up median.
		cfg.setups = 1
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			fail(err)
		}
	}
	setPath := ""
	if *out != "" {
		if setPath, err = filepath.Abs(*out); err != nil {
			fail(err)
		}
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fail(err)
	}
	// Inputs live under the work directory at relative paths, which both
	// this process and the daemons it starts resolve from here.
	if err := os.Chdir(workDir); err != nil {
		fail(err)
	}

	if *repeat > 0 {
		set, err := repeatRuns(os.Stdout, cfg, selected, *repeat)
		if err != nil {
			fail(err)
		}
		if err := writeSet(setPath, set); err != nil {
			fail(err)
		}
		return
	}
	exit := 0
	for _, w := range selected {
		res, err := runWorkload(cfg, w)
		if err != nil {
			fail(err)
		}
		printResult(os.Stdout, cfg, w, res)
		if !res.Correct {
			exit = 1
		}
	}
	os.Exit(exit)
}

// defaultSeconds is the measured window of one run, BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

// Paths under the repository root that bench/run.sh builds into: the
// daemon binary (built with -trimpath) and the directory for generated
// inputs, cache directories and traces.
const (
	wasabidPath = ".bench_build/bin/wasabid"
	workPath    = ".bench_build/work"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// daemonFlags renders the flags a workload's daemons run with.
func daemonFlags(w workload, t *tree) string {
	args := append([]string{"-addr", "127.0.0.1:0"}, t.daemonArgs...)
	if w.restart {
		args = append(args, "-cache-dir", restartCacheDir)
	}
	return strings.Join(args, " ") + " (all else default: -slots 0 = max(GOMAXPROCS, 2), -workers 0 = GOMAXPROCS)"
}

// printResult writes a run's table and, last, its JSON result line,
// which carries the metrics BENCHMARK.json lists.
func printResult(w io.Writer, cfg config, wl workload, res *result) {
	defs, lineDefs := endToEnd, gated()
	if cfg.traceDir != "" {
		defs, lineDefs = perLayer, perLayer
	}
	fmt.Fprintf(w, "# %s  seed %d  seconds %g  clients %d  nproc %d  GOMAXPROCS %d\n",
		wl.name, res.Seed, cfg.seconds.Seconds(), wl.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# daemon: wasabid %s\n", res.flags)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range res.Probes {
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	fmt.Fprintf(w, "# probe %.0f–%.0f rounds/s; times scaled to %d rounds/s, as measured after \"raw\" (probe.go)\n",
		lo, hi, referenceRate)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s n=%-6d", d.Name, res.Metrics[d.Name], d.Unit, res.Samples[d.Name])
		if raw, ok := res.Raw[d.Name]; ok {
			fmt.Fprintf(w, " raw %.4f", raw)
		}
		fmt.Fprintln(w)
	}
	if len(res.layers) > 0 {
		fmt.Fprintf(w, "# replay self-time by layer (share of job wall time, %d traced jobs; trace in %s)\n",
			res.Samples["replay.job_ms"], filepath.Join(cfg.traceDir, wl.name+".trace.json"))
		for _, l := range res.layers {
			fmt.Fprintf(w, "  %-10s %6.1f%%\n", l, 100*res.shares[l])
		}
	}
	fmt.Fprintf(w, "# attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, e := range res.errs {
		fmt.Fprintf(w, "#   %s\n", e)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range lineDefs {
		line.Metrics[d.Name] = metric{res.Metrics[d.Name], d.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(w, "%s\n", data)
}

// runSet is a recorded set of untraced runs.
type runSet struct {
	Nproc       int                           `json:"nproc"`
	GOMAXPROCS  int                           `json:"gomaxprocs"`
	Seconds     float64                       `json:"seconds"`
	DaemonFlags map[string]string             `json:"daemon_flags"`
	Summary     map[string]map[string]summary `json:"summary"`
	// RawSummary summarizes the time metrics as measured (result.Raw).
	RawSummary map[string]map[string]summary `json:"raw_summary"`
	Runs       []*result                     `json:"runs"`
}

// repeatRuns runs every selected workload once per round, round r with
// seed cfg.seed+r, so a slow phase of a shared machine lands on every
// workload rather than on one.
func repeatRuns(w io.Writer, cfg config, selected []workload, rounds int) (*runSet, error) {
	set := &runSet{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: cfg.seconds.Seconds(),
		DaemonFlags: map[string]string{}, Summary: map[string]map[string]summary{},
		RawSummary: map[string]map[string]summary{},
	}
	base := cfg.seed
	for r := 0; r < rounds; r++ {
		for _, wl := range selected {
			cfg.seed = base + uint64(r)
			res, err := runWorkload(cfg, wl)
			if err != nil {
				return nil, err
			}
			printResult(w, cfg, wl, res)
			if !res.Correct {
				return nil, fmt.Errorf("%s seed %d: incorrect run", wl.name, cfg.seed)
			}
			set.DaemonFlags[wl.name] = res.flags
			set.Runs = append(set.Runs, res)
		}
	}
	for _, wl := range selected {
		set.Summary[wl.name], set.RawSummary[wl.name] = map[string]summary{}, map[string]summary{}
		for _, d := range endToEnd {
			var xs, raw []float64
			for _, res := range set.Runs {
				if res.Workload != wl.name {
					continue
				}
				xs = append(xs, res.Metrics[d.Name])
				if v, ok := res.Raw[d.Name]; ok {
					raw = append(raw, v)
				}
			}
			set.Summary[wl.name][d.Name] = summarize(xs)
			if len(raw) > 0 {
				set.RawSummary[wl.name][d.Name] = summarize(raw)
			}
		}
	}
	printSummary(w, set)
	return set, nil
}

func printSummary(w io.Writer, set *runSet) {
	fmt.Fprintf(w, "# set: nproc %d  GOMAXPROCS %d  seconds %g\n", set.Nproc, set.GOMAXPROCS, set.Seconds)
	fmt.Fprintf(w, "  %-14s %-22s %12s %12s %12s %4s %8s %9s %7s %7s\n",
		"workload", "metric", "median", "q1", "q3", "n", "spread", "raw sprd", "bound", "gate")
	for _, wl := range sortedKeys(set.Summary) {
		for _, d := range endToEnd {
			s := set.Summary[wl][d.Name]
			raw, gate := "-", "-"
			if r, ok := set.RawSummary[wl][d.Name]; ok {
				raw = fmt.Sprintf("%.2f%%", 100*r.spread())
			}
			if d.Gate > 0 {
				gate = fmt.Sprintf("%.0f%%", 100*d.Gate)
			}
			fmt.Fprintf(w, "  %-14s %-22s %12.4f %12.4f %12.4f %4d %7.2f%% %9s %6.1f%% %7s\n",
				wl, d.Name, s.Median, s.Q1, s.Q3, s.N, 100*s.spread(), raw, 100*boundShare(d, s), gate)
		}
	}
}

// boundShare is a metric's allowance as a share of median s (0 for a
// median of 0, where no worsening is allowed).
func boundShare(d metricDef, s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return allowance(d, s) / math.Abs(s.Median)
}

func writeSet(path string, set *runSet) error {
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// agreeSets reports, for every workload × end-to-end metric both sets
// measured, whether set B's median is within the allowance of set A's.
// It returns false when any pairing regressed; unresolved pairings
// (quartile distance wider than the allowance) are reported but do not
// fail.
func agreeSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "  %-14s %-22s %12s %12s %12s %12s %-6s  %s\n", "workload", "metric", "median A", "median B", "worse by", "allowed", "unit", "verdict")
	for _, wl := range sortedKeys(a.Summary) {
		sb, found := b.Summary[wl]
		if !found {
			continue
		}
		for _, d := range endToEnd {
			x, y := a.Summary[wl][d.Name], sb[d.Name]
			v := verdict(d, x, y)
			if v == verdictRegressed {
				ok = false
			}
			fmt.Fprintf(w, "  %-14s %-22s %12.4f %12.4f %12.4f %12.4f %-6s  %s\n",
				wl, d.Name, x.Median, y.Median, worsening(d, x, y), allowance(d, x), d.Unit, v)
		}
	}
	return ok, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
