package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// --compare before after: both files hold result records, one per line, as
// --out appends them — several runs of every workload on one commit each.
// For every workload and end-to-end metric it prints both sides' median and
// quartile spread over their runs and a verdict against the metric's bound:
//
//	unresolved  a side's own spread exceeds the bound, so the medians cannot
//	            be told apart at that resolution
//	regressed   after's median is worse than before's by more than the bound
//	improved    better by more than the bound
//	unchanged   otherwise
//
// A verdict is not a claim: a gain is claimed by the paired-run rule in the
// README. Simulated statistics are exact, so any change of a sim_digest
// between runs of the same workload and seed is flagged separately.

// readRecords loads the untraced records of a file, grouped by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Schema != recordSchema {
			return nil, fmt.Errorf("%s:%d: schema %q, want %q", path, line, rec.Schema, recordSchema)
		}
		if !rec.Traced {
			byWorkload[rec.Workload] = append(byWorkload[rec.Workload], rec)
		}
	}
	return byWorkload, sc.Err()
}

// budget is what two sides must share before their host timings compare.
type budget struct {
	GOMAXPROCS int
	Seconds    float64
}

func budgetOf(r record) budget { return budget{r.Env.GOMAXPROCS, r.Env.Seconds} }

// verdict classifies the move from before to after of one metric, given each
// side's values over its runs.
func verdict(def metricDef, before, after []float64) (string, float64) {
	a, b := median(before), median(after)
	worse := ratio(b-a, a)
	if def.Better == higher {
		worse = -worse
	}
	switch {
	case spread(before) > def.Bound || spread(after) > def.Bound:
		return "unresolved", worse
	case worse > def.Bound:
		return "regressed", worse
	case worse < -def.Bound:
		return "improved", worse
	}
	return "unchanged", worse
}

// compareFiles prints the comparison to w and returns the exit code: 0, 1
// when a metric regressed, 2 when the files cannot be compared (why goes to
// errw).
func compareFiles(w, errw io.Writer, beforePath, afterPath string) int {
	before, err := readRecords(beforePath)
	if err == nil && len(before) == 0 {
		err = fmt.Errorf("%s: no untraced records", beforePath)
	}
	var after map[string][]record
	if err == nil {
		after, err = readRecords(afterPath)
	}
	if err != nil {
		fmt.Fprintf(errw, "benchmark: compare: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(before))
	for name := range before {
		names = append(names, name)
	}
	sort.Strings(names)

	// Refuse before printing anything: host timings taken under another
	// thread count or measuring budget are not the same measurement.
	for _, name := range names {
		want := budgetOf(before[name][0])
		for _, r := range append(before[name], after[name]...) {
			if got := budgetOf(r); got != want {
				fmt.Fprintf(errw, "benchmark: compare: %s: runs differ in GOMAXPROCS or --seconds (%+v and %+v)\n", name, want, got)
				return 2
			}
		}
	}

	regressed := false
	for _, name := range names {
		a, b := before[name], after[name]
		if len(b) == 0 {
			fmt.Fprintf(w, "%s: only in %s\n", name, beforePath)
			continue
		}
		fmt.Fprintf(w, "%s: %d runs (commit %s) against %d runs (commit %s)\n",
			name, len(a), a[0].Env.Commit, len(b), b[0].Env.Commit)
		for _, r := range append(append([]record(nil), a...), b...) {
			if !r.Correct {
				fmt.Fprintf(w, "  FAILED       seed %d commit %s: %d of %d operations failed\n", r.Seed, r.Env.Commit, r.Failed, r.Attempted)
				regressed = true
			}
		}
		digests := map[uint64]string{}
		for _, r := range a {
			digests[r.Seed] = r.SimDigest
		}
		for _, r := range b {
			if d, ok := digests[r.Seed]; ok && d != r.SimDigest {
				fmt.Fprintf(w, "  SIM CHANGED  seed %d: sim_digest %s -> %s (a host-only change must leave it alone)\n", r.Seed, d, r.SimDigest)
				digests[r.Seed] = r.SimDigest
			}
		}
		for _, def := range endToEnd {
			series := func(rs []record) []float64 {
				vs := make([]float64, len(rs))
				for i, r := range rs {
					vs[i] = r.Metrics[def.Name].Value
				}
				return vs
			}
			va, vb := series(a), series(b)
			what, worse := verdict(def, va, vb)
			regressed = regressed || what == "regressed"
			fmt.Fprintf(w, "  %-11s  %-18s %14.6g -> %-14.6g %s  %+.2f%% of %.6g worse, bound %.0f%%; spread %.2f%% and %.2f%%\n",
				what, def.Name, median(va), median(vb), def.Unit, 100*worse, median(va), 100*def.Bound, 100*spread(va), 100*spread(vb))
		}
	}
	for name := range after {
		if len(before[name]) == 0 {
			fmt.Fprintf(w, "%s: only in %s\n", name, afterPath)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
