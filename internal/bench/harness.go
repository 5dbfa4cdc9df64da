package bench

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The parallel experiment harness. Every experiment configuration of the
// evaluation (one cell of Table 4, one point of Figures 6-9, one breadth of
// the ablation, ...) is an independent simulation with its own sim.Engine,
// so the sweeps are embarrassingly parallel: experiments plan their runs as
// Tasks (spec.go), runTasks fans them out over an in-process worker pool,
// and result ordering — and thus every simulated-cycle metric — stays
// identical to a serial run. runTask is the one way a task runs.

// ExpConfig identifies the machine configuration of one experiment. For
// non-workload experiments the fields map to the closest notion (e.g. the
// ablation reports children as Instances); unused fields are zero.
type ExpConfig struct {
	Kernels   int `json:"kernels"`
	Services  int `json:"services"`
	Instances int `json:"instances"`
}

// pes is the number of PEs the task simulates. It orders dispatch
// (dispatchOrder) and sizes the task's event budget (taskEventsPerPE).
func (c ExpConfig) pes() int { return c.Kernels + c.Services + c.Instances }

// taskEventsPerPE is the event budget of a task per simulated PE: runTask
// caps the engine at taskEventsPerPE × pes events (at least one PE's worth),
// so a task that cannot end panics between events and comes back as an
// error Result — and from a sweep as a TaskError — instead of hanging it.
// The densest tasks execute ~15 400 events per PE (fig10, nginx), ~3 800
// (scale at 512 and 1024 kernels) and ~1 300 (fig9, sqlite); every other
// task stays under 60. 1<<18 leaves at least 17× headroom.
const taskEventsPerPE = 1 << 18

// Metrics holds the simulated measurements of one experiment. Cycles is the
// experiment's headline simulated-time metric: mean instance runtime for the
// efficiency sweeps, makespan for Table 4, revocation latency for the
// microbenchmarks and the ablation, the measurement window for Figure 10.
// Efficiency and CapOps are filled where the experiment defines them. All
// three are simulated quantities and therefore deterministic; only
// wallclock varies between runs.
type Metrics struct {
	Cycles     uint64  `json:"cycles"`
	Efficiency float64 `json:"efficiency"`
	CapOps     uint64  `json:"capops"`
	// ReqMsgs/RepMsgs split the inter-kernel wire messages of a run by
	// direction (an envelope counts once). Only the transport ablation
	// fills them; they are omitted elsewhere, so adding them kept every
	// existing report comparable (schema unchanged: optional additions).
	ReqMsgs uint64 `json:"reqmsgs,omitempty"`
	RepMsgs uint64 `json:"repmsgs,omitempty"`
	// LostMsgs counts NoC messages dropped at a receiving DTU for want of
	// a free slot plus fault-injected losses (noc.Stats.Lost). On the
	// lossless baseline the in-flight accounting keeps it at zero, so
	// surfacing it makes bench-compare catch slot-exhaustion regressions.
	LostMsgs uint64 `json:"lostmsgs,omitempty"`
	// Retries/DupDrops/Completed are filled by the fault-injection
	// experiment: retransmitted wire transmissions, receiver-side
	// duplicate suppressions, and the fraction of client operations that
	// completed successfully. Omitted (zero) everywhere else.
	Retries   uint64  `json:"retries,omitempty"`
	DupDrops  uint64  `json:"dupdrops,omitempty"`
	Completed float64 `json:"completed,omitempty"`
}

// enginePool recycles sim.Engines (and their grown event-slab backing
// arrays) across all harness tasks in the process, so per-experiment engine
// setup stops dominating short runs.
var enginePool = sim.NewPool()

// Result is the outcome of one task. It is the unit of the machine-readable
// report (see report.go for the serialization layer).
type Result struct {
	Experiment  string    `json:"experiment"`
	Config      ExpConfig `json:"config"`
	Metrics     Metrics   `json:"metrics"`
	WallclockNS int64     `json:"wallclock_ns"`
	// CapsMinted is the number of capabilities the run's kernels created,
	// filled by the tasks that count them; zero for the others.
	// HeapPeakBytes is the process heap in use (runtime.MemStats.HeapAlloc)
	// when the task finished — an approximation of the run's footprint that
	// is process-global and, like WallclockNS, varies run to run;
	// determinism comparisons must ignore both. Together they back the wallclock summary's capsalloc/capsbytes
	// line.
	CapsMinted    uint64 `json:"capsminted,omitempty"`
	HeapPeakBytes uint64 `json:"heappeak_bytes,omitempty"`
	Error         string `json:"error,omitempty"`
}

// runTasks executes the tasks on a pool of `parallel` workers (<= 0 means
// GOMAXPROCS) and returns one Result per task, in plan order regardless of
// dispatch or completion order, so all simulated metrics are independent of
// both the parallelism and the schedule. A task that fails or panics becomes
// an error Result instead of tearing down the whole sweep.
func runTasks(parallel int, tasks []Task) []Result {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	parallel = min(parallel, len(tasks))
	results := make([]Result, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runTask(tasks[i])
			}
		}()
	}
	for _, i := range dispatchOrder(tasks) {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// dispatchOrder returns the order in which runTasks hands the tasks out:
// largest machine first (ExpConfig.pes), stable on ties. Host cost grows
// with machine size and the planners list a figure's largest point last, so
// plan order would leave one worker finishing the most expensive task alone
// at the end of every batch.
func dispatchOrder(tasks []Task) []int {
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Config.pes() > tasks[order[b]].Config.pes()
	})
	return order
}

// runTask executes one task on a pooled engine under its event budget
// (taskEventsPerPE), capturing wallclock and panics. The engine is in fresh
// state (new or Reset) when Run starts and goes back to the pool (Reset,
// procs unwound) whatever way the task ends. A failed task reports no
// metrics, and its error names its report row, which with the command line
// reruns it.
func runTask(t Task) (res Result) {
	eng := enginePool.Get()
	defer enginePool.Put(eng)
	eng.SetEventLimit(taskEventsPerPE * uint64(max(t.Config.pes(), 1)))
	res = Result{Experiment: t.Experiment, Config: t.Config}
	start := time.Now()
	defer func() {
		res.WallclockNS = time.Since(start).Nanoseconds()
		if r := recover(); r != nil {
			res.Error = fmt.Sprintf("panic: %v", r)
		}
		if res.Error != "" {
			res.Metrics, res.CapsMinted = Metrics{}, 0
			res.Error = fmt.Sprintf("task %s %+v: %s", t.Experiment, t.Config, res.Error)
		}
	}()
	var err error
	// CPU profile samples carry the task's experiment (go tool pprof
	// -tagfocus); the procs the task spawns inherit it.
	pprof.Do(context.Background(), pprof.Labels("experiment", t.Experiment), func(context.Context) {
		err = t.Run(eng, &res)
	})
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.HeapPeakBytes = mem.HeapAlloc
	if err != nil {
		res.Error = err.Error()
	}
	return res
}

// audit turns what core.System.Audit finds on a machine that has run dry —
// work left outstanding (a syscall that never returned, a kernel thread
// still holding a job, credits or receive slots not given back), capability
// or DDL state that outlived its owner, a broken capability table — into
// the task's error. Every task that runs its system until no event is left
// calls it after the final sys.Run(): such a run raises no error by itself,
// it just measures nothing, and a finding is the task's error, not a column
// somebody has to read. dead lists the kernels that crashed for good; what
// only they could clean up is excused.
func audit(sys *core.System, dead ...int) error {
	found := sys.Audit(dead...)
	if len(found) == 0 {
		return nil
	}
	return fmt.Errorf("the drained machine failed its audit:\n  %s", strings.Join(found, "\n  "))
}

// TaskError is the value the sweeps panic with when a task failed: the
// experiment entry points return tables, not errors, so a caller that wants
// to survive a failed task recovers it (semperos-bench does, to exit 1 with
// the message).
type TaskError string

func (e TaskError) Error() string { return string(e) }

// mustOK panics on the first failed result: the sweeps fail fast (a broken
// experiment is a bug, not data). The result's error is the message as it
// stands: it names the task's report row already (runTask).
func mustOK(rs []Result) {
	for _, r := range rs {
		if r.Error != "" {
			panic(TaskError(r.Error))
		}
	}
}

// workloadTasks plans one application workload run (trace replay against
// m3fs services) per config; they back Table 4 and Figures 6-9. Each task
// writes its makespan, which Table 4 needs (its headline cycle metric and
// the denominator of the ops/s rate) while the efficiency sweeps do not,
// into its slot of the returned slice.
func workloadTasks(experiment string, cfgs []workload.Config) ([]Task, []uint64) {
	tasks := make([]Task, len(cfgs))
	makespans := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		tasks[i] = Task{
			Experiment: experiment + "/" + cfg.Trace.Name,
			Config:     ExpConfig{Kernels: cfg.Kernels, Services: cfg.Services, Instances: cfg.Instances},
			Run: func(eng *sim.Engine, res *Result) error {
				cfg.Engine = eng
				r, err := workload.Run(cfg)
				if err != nil {
					return err
				}
				res.Metrics = Metrics{Cycles: uint64(r.MeanRuntime()), CapOps: r.TotalCapOps, LostMsgs: r.LostMsgs}
				res.CapsMinted = r.Kernel.CapsCreated
				makespans[i] = uint64(r.Makespan)
				return nil
			},
		}
	}
	return tasks, makespans
}

// record appends results to the report, when one is attached.
func (o Options) record(rs []Result) {
	if o.Report != nil {
		o.Report.Add(rs...)
	}
}

// sweepSpec describes one efficiency sweep: a 1-instance baseline plus one
// run per instance step, all with the same kernel/service configuration.
type sweepSpec struct {
	tr       *trace.Trace
	kernels  int
	services int
	steps    []int
	system   bool // the points are system efficiencies (workload.SystemEfficiency)
}

// runEffSweeps runs several efficiency sweeps as one parallel task batch:
// every baseline and every point across all sweeps is an independent
// simulation, so a whole figure saturates the pool at once. For each sweep
// it returns the (instances, efficiency) points in step order and records
// one Result per run with Efficiency filled on the sweep points.
func (o Options) runEffSweeps(experiment string, specs []sweepSpec) [][]EffPoint {
	var cfgs []workload.Config
	offsets := make([]int, len(specs))
	for si, sp := range specs {
		offsets[si] = len(cfgs)
		cfgs = append(cfgs, workload.Config{Kernels: sp.kernels, Services: sp.services, Instances: 1, Trace: sp.tr})
		for _, n := range sp.steps {
			cfgs = append(cfgs, workload.Config{Kernels: sp.kernels, Services: sp.services, Instances: n, Trace: sp.tr})
		}
	}
	tasks, _ := workloadTasks(experiment, cfgs)
	rs := o.execute(tasks)
	out := make([][]EffPoint, len(specs))
	for si, sp := range specs {
		base := offsets[si]
		alone := rs[base].Metrics.Cycles
		rs[base].Metrics.Efficiency = 1
		pts := make([]EffPoint, 0, len(sp.steps))
		for j, n := range sp.steps {
			r := &rs[base+1+j]
			eff := float64(alone) / float64(r.Metrics.Cycles)
			if sp.system {
				eff = workload.SystemEfficiency(eff, sp.kernels, sp.services, n)
			}
			r.Metrics.Efficiency = eff
			pts = append(pts, EffPoint{Instances: n, Efficiency: eff})
		}
		out[si] = pts
	}
	o.record(rs)
	return out
}
