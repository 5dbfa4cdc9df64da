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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
)

// key identifies one experiment configuration. Sweeps may legitimately run
// one configuration several times (e.g. a baseline shared between figures),
// so rows are compared per key in report order.
type key struct {
	Experiment string
	Config     bench.ExpConfig
}

func load(path string) (*bench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r bench.Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != bench.ReportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, bench.ReportSchema)
	}
	return &r, nil
}

func byKey(r *bench.Report) (map[key][]bench.Metrics, []key) {
	m := make(map[key][]bench.Metrics)
	var order []key
	for _, res := range r.Results {
		k := key{Experiment: res.Experiment, Config: res.Config}
		if _, seen := m[k]; !seen {
			order = append(order, k)
		}
		m[k] = append(m[k], res.Metrics)
	}
	return m, order
}

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
	base, err := load(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fresh, err := load(freshPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	baseBy, baseOrder := byKey(base)
	freshBy, freshOrder := byKey(fresh)

	if *delta {
		same, changed := printDeltas(stdout, baseBy, baseOrder, freshBy, freshOrder)
		fmt.Fprintf(stdout, "bench-compare: %d identical, %d changed between %s and %s\n", same, changed, basePath, freshPath)
		return 0
	}

	drift, compared := 0, 0
	report := func(format string, args ...any) {
		drift++
		fmt.Fprintf(stdout, format+"\n", args...)
	}
	for _, k := range baseOrder {
		want := baseBy[k]
		got, ok := freshBy[k]
		if !ok {
			report("MISSING  %s %+v: in baseline, absent from fresh run", k.Experiment, k.Config)
			continue
		}
		if len(got) != len(want) {
			report("COUNT    %s %+v: %d baseline runs vs %d fresh", k.Experiment, k.Config, len(want), len(got))
			continue
		}
		for i := range want {
			compared++
			if got[i] != want[i] {
				report("CHANGED  %s %+v: metrics %+v -> %+v", k.Experiment, k.Config, want[i], got[i])
			}
		}
	}
	for _, k := range freshOrder {
		if _, ok := baseBy[k]; ok {
			continue
		}
		if *allowNew {
			fmt.Fprintf(stdout, "new      %s %+v (allowed)\n", k.Experiment, k.Config)
		} else {
			report("NEW      %s %+v: not in baseline (regenerate it or pass -allow-new)", k.Experiment, k.Config)
		}
	}
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

// printDeltas is the -delta mode: a human-readable diff of two arbitrary
// reports, for review rather than enforcement. A matching row with changed
// metrics shows every field that differs (cycles with a percentage);
// identical rows are only counted; rows unique to either report are listed.
func printDeltas(w io.Writer, baseBy map[key][]bench.Metrics, baseOrder []key, freshBy map[key][]bench.Metrics, freshOrder []key) (same, changed int) {
	for _, k := range baseOrder {
		want := baseBy[k]
		got, ok := freshBy[k]
		if !ok {
			fmt.Fprintf(w, "only-old %s %+v\n", k.Experiment, k.Config)
			continue
		}
		if len(want) != len(got) {
			fmt.Fprintf(w, "count    %s %+v: %d runs vs %d\n", k.Experiment, k.Config, len(want), len(got))
		}
		for i := 0; i < min(len(want), len(got)); i++ {
			if got[i] == want[i] {
				same++
				continue
			}
			changed++
			fmt.Fprintf(w, "delta    %s %+v:%s\n", k.Experiment, k.Config, describe(want[i], got[i]))
		}
	}
	for _, k := range freshOrder {
		if _, ok := baseBy[k]; !ok {
			fmt.Fprintf(w, "only-new %s %+v\n", k.Experiment, k.Config)
		}
	}
	return same, changed
}

// describe lists every field of bench.Metrics in which b differs from a, in
// field order: " name old -> new" each. Metrics is comparable, so a row
// reported as changed always differs in at least one of them.
func describe(a, b bench.Metrics) string {
	var line string
	count := func(name string, old, new uint64) {
		if old != new {
			line += fmt.Sprintf(" %s %d -> %d", name, old, new)
		}
	}
	ratio := func(name string, old, new float64) {
		if old != new {
			line += fmt.Sprintf(" %s %.4f -> %.4f", name, old, new)
		}
	}
	count("cycles", a.Cycles, b.Cycles)
	if a.Cycles != b.Cycles && a.Cycles != 0 {
		line += fmt.Sprintf(" (%+.2f%%)", 100*(float64(b.Cycles)-float64(a.Cycles))/float64(a.Cycles))
	}
	ratio("eff", a.Efficiency, b.Efficiency)
	count("capops", a.CapOps, b.CapOps)
	if a.ReqMsgs != b.ReqMsgs || a.RepMsgs != b.RepMsgs {
		line += fmt.Sprintf(" msgs %d+%d -> %d+%d (req+rep)", a.ReqMsgs, a.RepMsgs, b.ReqMsgs, b.RepMsgs)
	}
	count("lostmsgs", a.LostMsgs, b.LostMsgs)
	count("retries", a.Retries, b.Retries)
	count("dupdrops", a.DupDrops, b.DupDrops)
	ratio("completed", a.Completed, b.Completed)
	return line
}
