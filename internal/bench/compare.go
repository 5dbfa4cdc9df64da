package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The comparison of two reports' simulated (experiment, config, metrics)
// triples: cmd/bench-compare's two modes, and the in-process check of the
// committed quick baseline. Wallclock and worker-pool fields are ignored.

// key identifies one experiment configuration. Sweeps may legitimately run
// one configuration several times (e.g. a baseline shared between figures),
// so rows are compared per key in report order.
type key struct {
	Experiment string
	Config     ExpConfig
}

// ReadReport reads a semperos-bench JSON report and checks its schema.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != ReportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, ReportSchema)
	}
	return &r, nil
}

func byKey(r *Report) (map[key][]Metrics, []key) {
	m := make(map[key][]Metrics)
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

// Drift is bench-compare's default mode: it writes one line per way a
// fresh report drifts from a baseline — a baseline row missing from fresh,
// a row run a different number of times, changed metrics and, unless
// allowNew, a row the baseline does not know — and returns how many it
// found and how many triples it compared. A new row that allowNew lets
// through is listed without counting.
func Drift(w io.Writer, base, fresh *Report, allowNew bool) (drift, compared int) {
	baseBy, baseOrder := byKey(base)
	freshBy, freshOrder := byKey(fresh)
	report := func(format string, args ...any) {
		drift++
		fmt.Fprintf(w, format+"\n", args...)
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
		if allowNew {
			fmt.Fprintf(w, "new      %s %+v (allowed)\n", k.Experiment, k.Config)
		} else {
			report("NEW      %s %+v: not in baseline (regenerate it or pass -allow-new)", k.Experiment, k.Config)
		}
	}
	return drift, compared
}

// Deltas is bench-compare's -delta mode: a human-readable diff of two
// arbitrary reports, for review rather than enforcement. A matching row with
// changed metrics shows every field that differs (cycles with a
// percentage); identical rows are only counted; rows unique to either
// report are listed.
func Deltas(w io.Writer, base, fresh *Report) (same, changed int) {
	baseBy, baseOrder := byKey(base)
	freshBy, freshOrder := byKey(fresh)
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

// describe lists every field of Metrics in which b differs from a, in
// field order: " name old -> new" each. Metrics is comparable, so a row
// reported as changed always differs in at least one of them.
func describe(a, b Metrics) string {
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
