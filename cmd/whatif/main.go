// Command whatif inspects *.critpath.json sidecars written by the
// critical-path analyzer (-critpath on cmd/experiments, cmd/scalability,
// or cmd/clustersim): per-component blame tables for where the makespan
// went, what-if speedup bounds, per-link slack, and diffs between two
// sidecars of the same scenarios.
//
//	whatif experiments.critpath.json
//	whatif -slack 5 scalability.critpath.json
//	whatif -diff before.critpath.json after.critpath.json
package main

import (
	"flag"
	"fmt"
	"os"

	"clustersoc/internal/critpath"
)

func main() {
	var (
		diff  = flag.Bool("diff", false, "diff two sidecars: reports are matched by scenario, and per-component deltas are printed for each pair")
		slack = flag.Int("slack", 0, "also print the top-N tightest per-link slack rows of every report (0 = off)")
	)
	flag.Parse()
	if *slack < 0 {
		fmt.Fprintf(os.Stderr, "whatif: -slack must be at least 0 (0 = off), got %d\n", *slack)
		os.Exit(2)
	}

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "whatif -diff needs exactly two sidecar files")
			os.Exit(2)
		}
		a, b := readSidecar(flag.Arg(0)), readSidecar(flag.Arg(1))
		if len(a) == 1 && len(b) == 1 {
			// One report each: compare directly, so two configurations of
			// the same workload (1GbE vs 10GbE) diff without label games.
			fmt.Print(critpath.Diff(a[0], b[0]))
			return
		}
		byScenario := make(map[string]*critpath.Report, len(b))
		for _, r := range b {
			byScenario[r.Scenario] = r
		}
		matched := 0
		for _, ra := range a {
			rb, ok := byScenario[ra.Scenario]
			if !ok {
				fmt.Fprintf(os.Stderr, "whatif: scenario %q only in %s, skipped\n", ra.Scenario, flag.Arg(0))
				continue
			}
			if matched > 0 {
				fmt.Println()
			}
			fmt.Print(critpath.Diff(ra, rb))
			matched++
		}
		if matched == 0 {
			fmt.Fprintln(os.Stderr, "whatif: no scenarios in common")
			os.Exit(1)
		}
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: whatif [-slack N] sidecar.critpath.json...   or   whatif -diff a.critpath.json b.critpath.json")
		os.Exit(2)
	}
	first := true
	for _, path := range flag.Args() {
		for _, r := range readSidecar(path) {
			if !first {
				fmt.Println()
			}
			first = false
			fmt.Print(r.BlameTable())
			fmt.Println()
			fmt.Print(r.WhatIfTable())
			if *slack > 0 && len(r.Links) > 0 {
				fmt.Println()
				fmt.Print(r.SlackTable(*slack))
			}
		}
	}
}

// readSidecar loads one sidecar or exits with its error.
func readSidecar(path string) []*critpath.Report {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	reports, err := critpath.ReadReports(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
		os.Exit(1)
	}
	return reports
}
