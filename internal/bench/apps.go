package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options scales the application-level experiments. Full() reproduces the
// paper's sweeps (512 instances, 640 PEs); Quick() shrinks them for smoke
// runs and unit benchmarks.
type Options struct {
	// MaxInstances caps the largest instance count (paper: 512).
	MaxInstances int
	// Kernels64 is the "64 kernels" of the paper's sweeps.
	Kernels64 int
	// InstanceSteps are the x-axis instance counts of the efficiency sweeps
	// (Figures 6-9), ascending and ending at MaxInstances: the multiples 1..8
	// of MaxInstances/8 at paper scale.
	InstanceSteps []int
	// Parallel is the experiment worker-pool size (0 = GOMAXPROCS). Every
	// experiment configuration runs on its own sim.Engine, so all simulated
	// metrics are independent of Parallel; only wallclock changes.
	Parallel int
	// Report, when non-nil, collects one Result per experiment run for the
	// machine-readable JSON report (see report.go).
	Report *Report
	// FaultSeed seeds the deterministic fault injector of the faults and
	// churn experiments (-faultseed); 0 means seed 1 (faultSeed). Identical
	// seeds give byte-identical faulty runs at any -parallel.
	FaultSeed uint64
}

// Full returns the paper-scale options.
func Full() Options {
	return Options{MaxInstances: 512, Kernels64: 64, InstanceSteps: []int{64, 128, 192, 256, 320, 384, 448, 512}}
}

// Quick returns reduced options for smoke runs.
func Quick() Options {
	return Options{MaxInstances: 64, Kernels64: 8, InstanceSteps: []int{16, 32, 48, 64}}
}

// faultSeed is the seed of the fault injector: FaultSeed, with 0 meaning 1.
func (o Options) faultSeed() uint64 {
	if o.FaultSeed == 0 {
		return 1
	}
	return o.FaultSeed
}

func (o Options) scaleCfg(k, s int) (int, int) {
	// Scale kernel/service counts proportionally when running quick.
	f := o.Kernels64
	return max(1, k*f/64), max(1, s*f/64)
}

// sparseSteps thins the instance axis to the paper's Figures 7-9 x-axis
// (128..512 in four steps at full scale).
func (o Options) sparseSteps() []int {
	if len(o.InstanceSteps) <= 4 {
		return o.InstanceSteps
	}
	var out []int
	for i, n := range o.InstanceSteps {
		if i%2 == 1 {
			out = append(out, n)
		}
	}
	return out
}

// --- Table 4 ---------------------------------------------------------------

// Table4Row is one application's row.
type Table4Row struct {
	Name     string
	CapOps1  uint64
	Rate1    float64
	CapOpsN  uint64
	RateN    float64
	PaperOps uint64
}

// Table4Result holds all rows.
type Table4Result struct {
	N    int // parallel instance count (paper: 512)
	Rows []Table4Row
}

// Table4 measures capability-operation counts and rates for 1 and N
// parallel instances (paper: 512 instances, 64 kernels + 64 services).
// All 2x6 runs execute in parallel on the harness.
func Table4(o Options) Table4Result {
	kernels, services := o.scaleCfg(64, 64)
	res := Table4Result{N: o.MaxInstances}
	traces := trace.All()
	cfgs := make([]workload.Config, 0, 2*len(traces))
	for _, tr := range traces {
		cfgs = append(cfgs,
			workload.Config{Kernels: 1, Services: 1, Instances: 1, Trace: tr},
			workload.Config{Kernels: kernels, Services: services, Instances: o.MaxInstances, Trace: tr})
	}
	tasks, makespans := workloadTasks("table4", cfgs)
	rs := o.execute(tasks)
	for i, tr := range traces {
		make1, makeN := makespans[2*i], makespans[2*i+1]
		// Table 4's headline cycle metric is the makespan (the denominator
		// of the ops/s rate), not the mean instance runtime.
		rs[2*i].Metrics.Cycles = make1
		rs[2*i+1].Metrics.Cycles = makeN
		res.Rows = append(res.Rows, Table4Row{
			Name:     tr.Name,
			CapOps1:  rs[2*i].Metrics.CapOps,
			Rate1:    capOpsRate(rs[2*i].Metrics.CapOps, make1),
			CapOpsN:  rs[2*i+1].Metrics.CapOps,
			RateN:    capOpsRate(rs[2*i+1].Metrics.CapOps, makeN),
			PaperOps: tr.WantCapOps,
		})
	}
	o.record(rs)
	return res
}

// capOpsRate mirrors workload.Result.CapOpsPerSecond from the quantities a
// Result keeps (identical float operations, so the rates match bit for bit).
func capOpsRate(ops, makespan uint64) float64 {
	if makespan == 0 {
		return 0
	}
	return float64(ops) / (float64(makespan) / core.CyclesPerSecond)
}

// Print writes the table in the paper's layout.
func (r Table4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 4: Capability operations per application (1 and %d instances)\n", r.N)
	fmt.Fprintln(w, "benchmark   ops(1)  ops/s(1)   ops(N)   ops/s(N)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s  %6d  %8.0f  %7d  %9.0f\n",
			row.Name, row.CapOps1, row.Rate1, row.CapOpsN, row.RateN)
	}
}

// --- Figures 6-9 -------------------------------------------------------------

// EffPoint is one (instances, efficiency) point.
type EffPoint struct {
	Instances  int
	Efficiency float64
}

// EffSeries is one line of an efficiency figure.
type EffSeries struct {
	Label  string
	Points []EffPoint
}

// EffResult is a complete efficiency figure.
type EffResult struct {
	Title  string
	Series []EffSeries
}

// Print writes the figure as one column per series.
func (r EffResult) Print(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	fmt.Fprint(w, "instances")
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %18s", s.Label)
	}
	fmt.Fprintln(w)
	if len(r.Series) == 0 {
		return
	}
	for i, pt := range r.Series[0].Points {
		fmt.Fprintf(w, "%9d", pt.Instances)
		for _, s := range r.Series {
			fmt.Fprintf(w, "  %17.1f%%", 100*s.Points[i].Efficiency)
		}
		fmt.Fprintln(w)
	}
}

// efficiencySweep measures parallel efficiency over instance counts for a
// fixed kernel/service configuration; the single-instance baseline and the
// points all run in parallel. Figures batch several sweeps into one harness
// run via runEffSweeps instead.
func (o Options) efficiencySweep(tr *trace.Trace, kernels, services int, steps []int) []EffPoint {
	return o.runEffSweeps("sweep", []sweepSpec{{tr: tr, kernels: kernels, services: services, steps: steps}})[0]
}

// Fig6 measures parallel efficiency of all six applications at 32 kernels
// and 32 services (paper Figure 6). All six sweeps share one task batch.
func Fig6(o Options) EffResult {
	kernels, services := o.scaleCfg(32, 32)
	res := EffResult{Title: fmt.Sprintf("Figure 6: Parallel efficiency, %d kernels + %d services", kernels, services)}
	traces := trace.All()
	specs := make([]sweepSpec, len(traces))
	for i, tr := range traces {
		specs[i] = sweepSpec{tr: tr, kernels: kernels, services: services, steps: o.InstanceSteps}
	}
	pts := o.runEffSweeps("fig6", specs)
	for i, tr := range traces {
		res.Series = append(res.Series, EffSeries{Label: tr.Name, Points: pts[i]})
	}
	return res
}

// Fig7 measures service dependence: tar and SQLite at max kernels with a
// growing number of services (paper Figure 7). Both traces and all service
// counts form one task batch.
func Fig7(o Options) []EffResult {
	kernels, _ := o.scaleCfg(64, 64)
	return o.dependence("fig7", "Figure 7", fmt.Sprintf("service dependence, %d kernels", kernels),
		[]*trace.Trace{trace.Tar(), trace.SQLite()}, func(n int) (int, int) { return o.scaleCfg(64, n) })
}

// Fig8 measures kernel dependence: PostMark and LevelDB at max services
// with a growing number of kernels (paper Figure 8).
func Fig8(o Options) []EffResult {
	_, services := o.scaleCfg(64, 64)
	return o.dependence("fig8", "Figure 8", fmt.Sprintf("kernel dependence, %d services", services),
		[]*trace.Trace{trace.PostMark(), trace.LevelDB()}, func(n int) (int, int) { return o.scaleCfg(n, 64) })
}

// dependence plans Figures 7 and 8: every trace at each paper count of the
// varied resource, machine(count) giving the (kernels, services) of the
// machine, as one task batch; one figure per trace, one series per count.
func (o Options) dependence(exp, fig, what string, traces []*trace.Trace, machine func(n int) (kernels, services int)) []EffResult {
	counts := []int{4, 8, 16, 32, 48, 64}
	var specs []sweepSpec
	for _, tr := range traces {
		for _, n := range counts {
			kernels, services := machine(n)
			specs = append(specs, sweepSpec{tr: tr, kernels: kernels, services: services, steps: o.sparseSteps()})
		}
	}
	pts := o.runEffSweeps(exp, specs)
	out := make([]EffResult, len(traces))
	for ti, tr := range traces {
		out[ti].Title = fmt.Sprintf("%s (%s): %s", fig, tr.Name, what)
		for i := ti * len(counts); i < (ti+1)*len(counts); i++ {
			out[ti].Series = append(out[ti].Series, EffSeries{
				Label:  fmt.Sprintf("%dK %dS", specs[i].kernels, specs[i].services),
				Points: pts[i],
			})
		}
	}
	return out
}

// SysEffPoint is one (total PEs, system efficiency) point.
type SysEffPoint struct {
	PEs        int
	Efficiency float64
}

// SysEffSeries is one configuration line of Figure 9.
type SysEffSeries struct {
	Label    string
	Kernels  int
	Services int
	Points   []SysEffPoint
}

// Fig9Result is the system-efficiency figure for one application.
type Fig9Result struct {
	Title  string
	Series []SysEffSeries
}

// Print writes the figure.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-12s", s.Label)
		for _, pt := range s.Points {
			fmt.Fprintf(w, "  (%d PEs: %.1f%%)", pt.PEs, 100*pt.Efficiency)
		}
		fmt.Fprintln(w)
	}
}

// Fig9 measures system efficiency (OS PEs count as zero) for PostMark and
// SQLite across OS configurations and machine sizes (paper Figure 9).
// Every baseline and machine-size run across both traces is one task batch.
func Fig9(o Options) []Fig9Result {
	configs := []struct{ k, s int }{
		{8, 8}, {16, 16}, {32, 16}, {32, 32}, {48, 32}, {64, 32},
	}
	peCounts := []int{128, 256, 384, 512, 640}
	if o.MaxInstances < 512 {
		peCounts = []int{32, 64, 96, 128}
	}
	traces := []*trace.Trace{trace.PostMark(), trace.SQLite()}

	// Flatten every run into one config list, remembering the layout:
	// per (trace, config): baseline index, then the (pes, run index) points.
	type seriesPlan struct {
		tr               *trace.Trace
		kernels, service int
		baseIdx          int
		pes              []int
		runIdx           []int
	}
	var cfgs []workload.Config
	var plans []seriesPlan
	for _, tr := range traces {
		for _, cfg := range configs {
			kernels, services := o.scaleCfg(cfg.k, cfg.s)
			pl := seriesPlan{tr: tr, kernels: kernels, service: services, baseIdx: len(cfgs)}
			cfgs = append(cfgs, workload.Config{Kernels: kernels, Services: services, Instances: 1, Trace: tr})
			for _, pes := range peCounts {
				instances := pes - kernels - services
				if instances < 1 {
					continue
				}
				pl.pes = append(pl.pes, pes)
				pl.runIdx = append(pl.runIdx, len(cfgs))
				cfgs = append(cfgs, workload.Config{Kernels: kernels, Services: services, Instances: instances, Trace: tr})
			}
			plans = append(plans, pl)
		}
	}
	tasks, _ := workloadTasks("fig9", cfgs)
	rs := o.execute(tasks)

	var out []Fig9Result
	pi := 0
	for _, tr := range traces {
		res := Fig9Result{Title: fmt.Sprintf("Figure 9 (%s): system efficiency", tr.Name)}
		for range configs {
			pl := plans[pi]
			pi++
			s := SysEffSeries{
				Label:    fmt.Sprintf("%dK %dS", pl.kernels, pl.service),
				Kernels:  pl.kernels,
				Services: pl.service,
			}
			alone := rs[pl.baseIdx].Metrics.Cycles
			rs[pl.baseIdx].Metrics.Efficiency = 1
			for j, pes := range pl.pes {
				r := &rs[pl.runIdx[j]]
				eff := float64(alone) / float64(r.Metrics.Cycles)
				sysEff := workload.SystemEfficiency(eff, pl.kernels, pl.service, pes-pl.kernels-pl.service)
				r.Metrics.Efficiency = sysEff
				s.Points = append(s.Points, SysEffPoint{PEs: pes, Efficiency: sysEff})
			}
			res.Series = append(res.Series, s)
		}
		out = append(out, res)
	}
	o.record(rs)
	return out
}

// --- Figure 10 ---------------------------------------------------------------

// NginxPoint is one (servers, requests/s) point.
type NginxPoint struct {
	Servers int
	ReqPerS float64
}

// NginxSeries is one configuration line.
type NginxSeries struct {
	Label  string
	Points []NginxPoint
}

// Fig10Result is the server-benchmark figure.
type Fig10Result struct {
	Title  string
	Series []NginxSeries
}

// Print writes the figure.
func (r Fig10Result) Print(w io.Writer) {
	fmt.Fprintln(w, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(w, "  %-12s", s.Label)
		for _, pt := range s.Points {
			fmt.Fprintf(w, "  (%d srv: %.0f req/s)", pt.Servers, pt.ReqPerS)
		}
		fmt.Fprintln(w)
	}
}

// reqRate is the aggregate request rate over a measurement window of
// duration cycles (a Result's Cycles).
func reqRate(requests, duration uint64) float64 {
	if duration == 0 {
		return 0
	}
	return float64(requests) / (float64(duration) / core.CyclesPerSecond)
}

// Fig10 measures Nginx scalability over server process counts and OS
// configurations (paper Figure 10). Every (config, servers) cell is an
// independent simulation; the whole figure is one planned batch.
func Fig10(o Options) Fig10Result {
	configs := []struct{ k, s int }{
		{8, 8}, {8, 16}, {8, 32}, {16, 16}, {32, 16}, {32, 32},
	}
	serverCounts := []int{32, 64, 96, 128, 160, 192, 224, 256}
	if o.MaxInstances < 512 {
		serverCounts = []int{8, 16, 24, 32}
	}
	// Each cell runs the closed-loop Nginx server benchmark and writes its
	// completed request count, from which the post-process derives the
	// requests/s axis.
	var tasks []Task
	requests := make([]uint64, len(configs)*len(serverCounts))
	for _, cfg := range configs {
		kernels, services := o.scaleCfg(cfg.k, cfg.s)
		for _, n := range serverCounts {
			reqs := &requests[len(tasks)]
			tasks = append(tasks, Task{
				Experiment: "fig10",
				Config:     ExpConfig{Kernels: kernels, Services: services, Instances: n},
				Run: func(eng *sim.Engine, res *Result) error {
					r, err := workload.RunNginx(workload.NginxConfig{Kernels: kernels, Services: services, Servers: n, Engine: eng})
					if err != nil {
						return err
					}
					res.Metrics = Metrics{Cycles: uint64(r.Duration), CapOps: r.TotalCapOps}
					*reqs = r.Requests
					return nil
				},
			})
		}
	}
	rs := o.execute(tasks)
	res := Fig10Result{Title: "Figure 10: Scalability of the Nginx webserver"}
	for ci := range configs {
		first := tasks[ci*len(serverCounts)].Config
		s := NginxSeries{Label: fmt.Sprintf("%dK %dS", first.Kernels, first.Services)}
		for si, n := range serverCounts {
			i := ci*len(serverCounts) + si
			s.Points = append(s.Points, NginxPoint{
				Servers: n,
				ReqPerS: reqRate(requests[i], rs[i].Metrics.Cycles),
			})
		}
		res.Series = append(res.Series, s)
	}
	o.record(rs)
	return res
}

// parallelEfficiencyBand is used by tests: the paper's headline claim is
// 70-78% parallel efficiency at 512 instances with 11% of PEs for the OS.
func parallelEfficiencyBand(o Options) (lo, hi float64) {
	kernels, services := o.scaleCfg(32, 32)
	traces := trace.All()
	specs := make([]sweepSpec, len(traces))
	for i, tr := range traces {
		specs[i] = sweepSpec{tr: tr, kernels: kernels, services: services, steps: []int{o.MaxInstances}}
	}
	pts := o.runEffSweeps("band", specs)
	lo, hi = 2.0, 0.0
	for i := range traces {
		e := pts[i][0].Efficiency
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	return lo, hi
}
