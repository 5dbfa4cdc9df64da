package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/bench"
)

// quick-sweep is what a user of the repository actually runs: the ten
// experiments of `semperos-bench -quick` on the parallel harness, two
// workers, into a fresh report. It is many short tasks — harness dispatch,
// engine-pool reset, machine boot and teardown, collection under two
// workers — where apps is a few long ones.
type sweepWorkload struct {
	// experiments is the sweep: all ten, or fewer for the smoke test.
	experiments []experiment
}

// experiment is one table or figure of the sweep.
type experiment struct {
	name  string
	micro bool
	run   func(o bench.Options)
}

var experiments = []experiment{
	{"table3", true, func(o bench.Options) { bench.Table3(o) }},
	{"fig4", true, func(o bench.Options) { bench.Fig4(o, 100) }},
	{"fig5", true, func(o bench.Options) { bench.Fig5(o, 128) }},
	{"table4", false, func(o bench.Options) { bench.Table4(o) }},
	{"fig6", false, func(o bench.Options) { bench.Fig6(o) }},
	{"fig7", false, func(o bench.Options) { bench.Fig7(o) }},
	{"fig8", false, func(o bench.Options) { bench.Fig8(o) }},
	{"fig9", false, func(o bench.Options) { bench.Fig9(o) }},
	{"fig10", false, func(o bench.Options) { bench.Fig10(o) }},
	{"ablation", true, func(o bench.Options) { bench.AblationBatching(o, 128, 12) }},
}

// sweepWorkers is the harness pool size and the GOMAXPROCS of the quick sweep.
const sweepWorkers = 2

func sweepOptions() bench.Options {
	o := bench.Quick()
	o.Parallel = sweepWorkers
	o.Report = bench.NewReport(true, sweepWorkers)
	return o
}

// runExperiment runs one experiment, turning the harness's fail-fast panic
// into an error.
func runExperiment(e experiment, o bench.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: %v", e.name, r)
		}
	}()
	e.run(o)
	return nil
}

// setup warms the harness with the four microbenchmark experiments: they
// fill the engine pool and grow the heap without replaying an application.
func (w *sweepWorkload) setup(uint64) (heapReading, error) {
	o := sweepOptions()
	for _, e := range w.experiments {
		if !e.micro {
			continue
		}
		if err := runExperiment(e, o); err != nil {
			return heapReading{}, fmt.Errorf("warm-up: %w", err)
		}
	}
	return keptHeap(), nil
}

// paperTable3 holds the paper's Table 3 in cycles by report row, as asserted
// by internal/bench/bench_test.go. It is the only reference data the
// repository holds, so it is the only error figure the benchmark gives.
var paperTable3 = map[string]float64{
	"table3/exchange-local": 3597, "table3/exchange-spanning": 6484, "table3/exchange-m3": 3250,
	"table3/revoke-local": 1997, "table3/revoke-spanning": 3876, "table3/revoke-m3": 1423,
}

// paperErrPct is the largest relative error, in percent, of the report's
// Table 3 rows against the paper's; a missing row counts as 100%.
func paperErrPct(rows []bench.Result) float64 {
	got := map[string]float64{}
	for _, row := range rows {
		got[row.Experiment] = float64(row.Metrics.Cycles)
	}
	var worst float64
	for name, want := range paperTable3 {
		worst = max(worst, 100*math.Abs(got[name]-want)/want)
	}
	return worst
}

func (w *sweepWorkload) pass(t *tracer, parent int, host *hostClock) passResult {
	var res passResult
	o := sweepOptions()
	for i, e := range w.experiments {
		if i > 0 {
			host.lap(t, parent)
		}
		before := o.Report.Len()
		id := t.begin("bench."+e.name, parent)
		err := runExperiment(e, o)
		t.end(id)
		if err != nil {
			// The harness stops an experiment at its first failed task and
			// records none of them.
			res.Attempted++
			res.fail(1, "%v", err)
			continue
		}
		for _, row := range o.Report.Results[before:] {
			t.task(row.Experiment, id, time.Duration(row.WallclockNS))
		}
	}

	d := newDigest()
	var effSum float64
	var effRows int
	for _, row := range o.Report.Results {
		res.Attempted++
		res.Counts.Tasks++
		res.Counts.TaskTime += time.Duration(row.WallclockNS)
		if row.Error != "" {
			res.fail(1, "%s %+v: %s", row.Experiment, row.Config, row.Error)
		}
		if row.Metrics.LostMsgs > 0 {
			res.fail(int(row.Metrics.LostMsgs), "%s %+v: %d NoC messages lost", row.Experiment, row.Config, row.Metrics.LostMsgs)
		}
		res.Counts.NocLost += row.Metrics.LostMsgs
		m := row.Metrics
		d.str(row.Experiment)
		d.u64(uint64(row.Config.Kernels), uint64(row.Config.Services), uint64(row.Config.Instances), m.Cycles, m.CapOps)
		d.f64(m.Efficiency)

		group, _, _ := strings.Cut(row.Experiment, "/")
		loaded := row.Config.Instances == o.MaxInstances
		switch group {
		case "table3", "fig4", "fig5", "ablation":
			// These rows are each the latency of one exchange or one
			// revocation: the sweep's client operations.
			res.Sim.ClientOps = append(res.Sim.ClientOps, m.Cycles)
		case "table4":
			if loaded {
				res.Sim.CapOps += m.CapOps
				res.Sim.Makespan += m.Cycles
			}
		case "fig6":
			if loaded {
				effSum += m.Efficiency
				effRows++
			}
		}
	}
	if effRows > 0 {
		res.Sim.Efficiency = effSum / float64(effRows)
	}
	res.Sim.PaperErrPct = paperErrPct(o.Report.Results)
	res.Sim.Digest = d.sum()
	return res
}
