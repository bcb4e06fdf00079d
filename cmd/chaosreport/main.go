// Command chaosreport measures the pipeline under an unreliable LLM
// backend: it runs the full evaluation (§4 scoring against corpus ground
// truth) at increasing transient-fault rates plus a hard outage, then
// again over multi-backend failover topologies, and prints the markdown
// tables recorded in EXPERIMENTS.md — true/false positives per workflow,
// degraded-file counts, and the §4.3 cost — so the "budgeted retry keeps
// results and cost stable" and "failover survives a primary outage with
// zero degraded files" claims are numbers, not assertions.
//
// Usage:
//
//	go run ./cmd/chaosreport
//
// Output is deterministic (seeded model, seeded faults, virtual time).
package main

import (
	"fmt"
	"os"

	"wasabi/internal/core"
	"wasabi/internal/evaluation"
	"wasabi/internal/llm"
)

// row is one measured configuration: a backend topology in
// llm.ParseBackends' grammar ("" runs without a router). A fault level
// is the one-backend topology sim=sim:PROFILE.
type row struct {
	name string
	spec string
}

// measure runs the evaluation and prints one markdown result row.
func measure(name string, opts core.Options) {
	ev, err := evaluation.RunWith(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaosreport: %s: %v\n", name, err)
		os.Exit(1)
	}
	var dyn, static evaluation.Score
	degraded := 0
	for _, ar := range ev.Apps {
		dyn.Add(ar.DynScores.Total())
		static.Add(ar.StaticScore.Total())
		degraded += len(ar.ID.Degraded)
	}
	fmt.Printf("| %s | %d_%d | %d_%d | %d_%d | %d | %d | %.1fK | $%.2f |\n",
		name,
		dyn.True, dyn.FP,
		static.True, static.FP,
		ev.IFScore.True, ev.IFScore.FP,
		degraded,
		ev.Usage.Calls, float64(ev.Usage.TokensIn)/1000, ev.Usage.CostUSD)
}

func header() {
	fmt.Println("| Fault level | Dynamic (true_FP) | Static WHEN (true_FP) | IF (true_FP) | Degraded files | LLM calls | Tokens | Cost |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
}

// table prints one result table, a row per configuration.
func table(rows []row) {
	header()
	for _, r := range rows {
		opts := core.DefaultOptions()
		if r.spec != "" {
			specs, err := llm.ParseBackends(r.spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaosreport: %s: %v\n", r.name, err)
				os.Exit(1)
			}
			opts.LLM.Backends = specs
		}
		measure(r.name, opts)
	}
}

func main() {
	table([]row{
		{"0% (perfect)", ""},
		{"0% (stack on)", "sim=sim:none"},
		{"5% (light)", "sim=sim:light"},
		{"20% (heavy)", "sim=sim:heavy"},
		{"hard outage", "sim=sim:outage"},
	})

	// Failover topologies: the same scoring over multi-backend topologies
	// (docs/RESILIENCE.md "Routing"). The headline row is the hard
	// primary outage: with a healthy secondary, every review fails over
	// and completes — zero degraded files, scores identical to the
	// perfect single-backend baseline.
	fmt.Println()
	fmt.Println("Failover topologies (multi-backend routing):")
	fmt.Println()
	table([]row{
		{"single healthy", "primary=sim"},
		{"primary outage → secondary", "primary=sim:outage;secondary=sim"},
		{"flaky primary → secondary", "primary=sim:heavy;secondary=sim"},
	})
}
