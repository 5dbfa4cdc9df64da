// Command bench-compare diffs the simulated (experiment, config, metrics)
// triples of two semperos-bench JSON reports (schema semperos-bench/v1).
//
// Usage:
//
//	bench-compare [-allow-new] BASELINE.json FRESH.json
//	bench-compare -delta OLD.json NEW.json
//
// All metrics in a report are simulated and deterministic, so any
// difference between a fresh run and the committed baseline is a semantic
// change to the simulation — not noise — and must be intentional: either
// the baseline is regenerated in the same PR, or the run is fixed. CI runs
// this against BENCH_quick.json to enforce mechanically what used to be a
// convention ("regressions in cycles are semantic changes").
//
// The two arguments are arbitrary report files — nothing ties the first to
// the committed baseline. In the default mode any difference is drift and
// fails; with -delta the tool instead *describes* the differences between
// two runs (every differing metric, cycle deltas with percentages, rows
// unique to either side) and always exits 0 on readable input. That is the
// review mode: diff a PR's BENCH_<tag>.json against its predecessor, or an
// ablation rerun against the recorded one, and paste the deltas.
//
// Exit status: 0 when the reports agree (or -delta on readable input), 1
// on drift (changed metrics, baseline rows missing from the fresh run, or
// — unless -allow-new — rows the baseline does not know) or when no row was
// compared at all (an empty baseline side agrees with anything), 2 on usage
// or read errors. Wallclock and worker-pool fields are ignored: only
// simulated quantities are compared.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench-compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allowNew := fs.Bool("allow-new", false, "tolerate experiments present only in the fresh report")
	delta := fs.Bool("delta", false, "describe metric deltas between two arbitrary reports instead of failing on drift")
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2 // Parse already reported the error and the usage
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench-compare [-allow-new|-delta] BASELINE.json FRESH.json")
		return 2
	}
	basePath, freshPath := fs.Arg(0), fs.Arg(1)
	base, err := bench.ReadReport(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fresh, err := bench.ReadReport(freshPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *delta {
		same, changed := bench.Deltas(stdout, base, fresh)
		fmt.Fprintf(stdout, "bench-compare: %d identical, %d changed between %s and %s\n", same, changed, basePath, freshPath)
		return 0
	}
	drift, compared := bench.Drift(stdout, base, fresh, *allowNew)
	if drift > 0 {
		fmt.Fprintf(stdout, "bench-compare: %d drifting triple(s) between %s and %s\n", drift, basePath, freshPath)
		return 1
	}
	if compared == 0 {
		fmt.Fprintf(stdout, "bench-compare: no triple compared between %s and %s\n", basePath, freshPath)
		return 1
	}
	fmt.Fprintf(stdout, "bench-compare: %d triples identical between %s and %s\n", compared, basePath, freshPath)
	return 0
}
