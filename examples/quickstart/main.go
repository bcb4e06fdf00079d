// Quickstart: run both WASABI workflows on one bundled application and
// print every finding.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wasabi"
)

func main() {
	app, err := wasabi.AppByCode("HD")
	if err != nil {
		log.Fatal(err)
	}

	p := wasabi.NewPipeline(wasabi.DefaultConfig())
	report, err := p.Analyze(app)
	if err != nil {
		log.Fatal(err)
	}

	cov := report.Coverage
	fmt.Printf("analyzed %s: %d retry structures identified, %d reached by its %d unit tests\n",
		report.Code, cov.StructuresTotal, cov.StructuresTested, cov.TestsTotal)
	fmt.Printf("fault-injection runs: %d (a naive plan would need %d)\n\n",
		cov.PlannedRuns, cov.NaiveRuns)

	for _, bug := range report.Bugs {
		fmt.Printf("[%-10s %-13s] %s\n    %s\n", bug.Workflow, bug.Kind, bug.Coordinator, bug.Details)
	}

	u := p.LLMUsage()
	fmt.Printf("\nsimulated GPT-4 usage: %d calls, %.1fK tokens, $%.2f\n",
		u.Calls, float64(u.TokensIn)/1000, u.CostUSD)
}
