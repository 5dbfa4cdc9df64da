package workload

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config describes one application-level experiment: N instances of one
// application running against S m3fs instances on a K-kernel machine —
// the paper's §5.3 setup ("we distribute them equally between kernels and
// filesystem services").
type Config struct {
	Kernels   int
	Services  int
	Instances int
	Trace     *trace.Trace
	// Engine, when non-nil, is a fresh (or Reset) simulation engine to build
	// the experiment on; see core.Config.Engine. One Run consumes it (Run
	// kills the engine on return), so it must not be shared across Runs
	// without a Reset in between.
	Engine *sim.Engine
}

// Result aggregates one experiment run.
type Result struct {
	Instances []InstanceResult
	// Makespan is the time from simulation start (including VPE creation
	// and session setup, which serialize at the kernels) until the last
	// instance finished.
	Makespan sim.Duration
	// TotalCapOps sums the capability operations of all instances.
	TotalCapOps uint64
	// Kernel aggregates all kernel statistics.
	Kernel core.KernelStats
	// LostMsgs counts NoC messages dropped at a receiving DTU (no free
	// slot). The in-flight accounting keeps it at zero on a healthy run;
	// the bench report surfaces it so regressions are caught mechanically.
	LostMsgs uint64
}

// MeanRuntime returns the average per-instance replay runtime.
func (r *Result) MeanRuntime() sim.Duration {
	if len(r.Instances) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, in := range r.Instances {
		sum += in.Runtime()
	}
	return sum / sim.Duration(len(r.Instances))
}

// CapOpsPerSecond returns the average rate of capability operations over
// the whole run (the paper's Table 4 metric).
func (r *Result) CapOpsPerSecond() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return float64(r.TotalCapOps) / (float64(r.Makespan) / core.CyclesPerSecond)
}

// Err returns the first instance error, if any.
func (r *Result) Err() error {
	for _, in := range r.Instances {
		if in.Err != nil {
			return fmt.Errorf("instance %d: %w", in.VPE, in.Err)
		}
	}
	return nil
}

// placement computes which group each service and instance lands in.
type placement struct {
	svcGroup     []int   // service -> group
	instGroup    []int   // instance -> group
	svcOfGroup   []int   // group -> preferred service
	instOfSvc    [][]int // service -> instances using it
	groupFreePEs [][]int // group -> unassigned user PEs
}

// place assigns services round-robin over groups and instances evenly,
// preferring the service hosted in the instance's own group (paper §5.3.2:
// "Kernels which host a service in their PE group prefer to connect their
// applications to the service in their PE group").
func place(s *core.System, services, instances int) *placement {
	k := s.Kernels()
	pl := &placement{
		svcGroup:     make([]int, services),
		instGroup:    make([]int, instances),
		svcOfGroup:   make([]int, k),
		instOfSvc:    make([][]int, services),
		groupFreePEs: make([][]int, k),
	}
	for _, pe := range s.UserPEs() {
		g := s.KernelOfPE(pe).ID()
		pl.groupFreePEs[g] = append(pl.groupFreePEs[g], pe)
	}
	for j := 0; j < services; j++ {
		pl.svcGroup[j] = j * k / services
	}
	// Preferred service per group: the nearest hosting group (ties toward
	// the lower service id).
	for g := 0; g < k; g++ {
		best, bestDist := 0, 1<<30
		for j := 0; j < services; j++ {
			d := pl.svcGroup[j] - g
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				best, bestDist = j, d
			}
		}
		pl.svcOfGroup[g] = best
	}
	for i := 0; i < instances; i++ {
		g := i % k
		pl.instGroup[i] = g
		svc := pl.svcOfGroup[g]
		pl.instOfSvc[svc] = append(pl.instOfSvc[svc], i)
	}
	return pl
}

// takePE pops the next free user PE in a group, falling back to any group.
func (pl *placement) takePE(g int) (int, error) {
	for off := 0; off < len(pl.groupFreePEs); off++ {
		gg := (g + off) % len(pl.groupFreePEs)
		if n := len(pl.groupFreePEs[gg]); n > 0 {
			pe := pl.groupFreePEs[gg][0]
			pl.groupFreePEs[gg] = pl.groupFreePEs[gg][1:]
			return pe, nil
		}
	}
	return 0, errors.New("workload: out of user PEs")
}

func svcName(j int) string { return "m3fs" + trace.Itoa(j) }

func instPrefix(i int) string { return "inst" + trace.Itoa(i) }

// machine is the machine Run builds for cfg: one user PE per service and per
// instance, and a memory PE per eight services.
func (cfg Config) machine() core.Config {
	return core.Config{
		Kernels:  cfg.Kernels,
		UserPEs:  cfg.Services + cfg.Instances,
		MemPEs:   1 + cfg.Services/8,
		MemBytes: 1 << 40, // accounting only: no memory is allocated
		Engine:   cfg.Engine,
	}
}

// Validate reports what Run refuses before it builds anything: a missing
// trace, a count that is not positive, or a machine core.Config.Validate
// rejects.
func (cfg Config) Validate() error {
	if cfg.Trace == nil {
		return errors.New("workload: no trace")
	}
	if cfg.Kernels <= 0 || cfg.Services <= 0 || cfg.Instances <= 0 {
		return errors.New("workload: kernels, services, instances must be positive")
	}
	return cfg.machine().Validate()
}

// Run executes the experiment and returns its result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg.machine())
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	pl := place(sys, cfg.Services, cfg.Instances)
	prefixes := make([][]string, cfg.Services)
	for j, insts := range pl.instOfSvc {
		prefixes[j] = make([]string, 0, len(insts))
		for _, i := range insts {
			prefixes[j] = append(prefixes[j], instPrefix(i))
		}
	}
	allReady, err := boot(sys, pl, cfg.Trace, prefixes)
	if err != nil {
		return nil, err
	}

	// Instances: wait for all services, then replay.
	results := make([]InstanceResult, cfg.Instances)
	for i := 0; i < cfg.Instances; i++ {
		i := i
		pe, err := pl.takePE(pl.instGroup[i])
		if err != nil {
			return nil, err
		}
		svc, res := svcName(pl.svcOfGroup[pl.instGroup[i]]), &results[i]
		prog := func(v *core.VPE, p *sim.Proc) {
			allReady.Wait(p)
			res.VPE, res.Start = v.ID, p.Now()
			res.Err = Replay(v, p, cfg.Trace, svc, instPrefix(i))
			res.End, res.CapOps = p.Now(), v.CapOps()
		}
		if _, err := sys.SpawnOn(pe, cfg.Trace.Name+"-"+trace.Itoa(i), prog); err != nil {
			return nil, err
		}
	}

	sys.Run()

	// A machine that drains with work outstanding (kernel threads still
	// holding a job, syscalls that never returned, credits or receive slots
	// not given back), or with leaked or broken capability state, raises no
	// error by itself; the audit is what notices.
	unfinished := sys.Audit()
	res := &Result{Instances: results}
	for _, in := range results {
		res.TotalCapOps += in.CapOps
		if in.End > sim.Time(res.Makespan) {
			res.Makespan = in.End
		}
		if in.End == 0 {
			return nil, fmt.Errorf("workload: instance %d never finished (err=%v); the machine ran dry with:\n  %s",
				in.VPE, in.Err, strings.Join(unfinished, "\n  "))
		}
	}
	if err := auditErr(unfinished); err != nil {
		return nil, err
	}
	res.Kernel = sys.TotalStats()
	res.LostMsgs = sys.Net.Stats().Lost
	if err := res.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// boot spawns the m3fs services of an experiment in id order, service j on
// a PE of its group pl.svcGroup[j], its image preloaded with tr's files
// under each of prefixes[j] and sized for the longest prefix list. The
// returned group is done once every service is ready.
func boot(sys *core.System, pl *placement, tr *trace.Trace, prefixes [][]string) (*sim.WaitGroup, error) {
	longest := 1
	for _, ps := range prefixes {
		longest = max(longest, len(ps))
	}
	imageBytes := tr.Footprint(m3fs.ExtentBytes)*uint64(longest) + 8<<20
	allReady := new(sim.WaitGroup)
	allReady.Add(len(prefixes))
	for j, ps := range prefixes {
		ready := sim.NewFuture[*m3fs.FS](sys.Eng)
		ready.OnComplete(func(*m3fs.FS) { allReady.Done() })
		pe, err := pl.takePE(pl.svcGroup[j])
		if err != nil {
			return nil, err
		}
		fscfg := m3fs.Config{ServiceName: svcName(j), ImageBytes: imageBytes}
		if _, err := sys.SpawnOn(pe, svcName(j), m3fs.Program(fscfg, Preload(tr, ps), ready)); err != nil {
			return nil, err
		}
	}
	return allReady, nil
}

// auditErr is the error of a drained machine whose audit found something,
// or nil.
func auditErr(findings []string) error {
	if len(findings) == 0 {
		return nil
	}
	return fmt.Errorf("workload: the drained machine failed its audit:\n  %s", strings.Join(findings, "\n  "))
}

// SystemEfficiency weights parallel efficiency by the fraction of PEs doing
// application work: OS PEs (kernels and services) count as zero-efficiency
// (paper §5.3.2, Figure 9).
func SystemEfficiency(eff float64, kernels, services, instances int) float64 {
	total := kernels + services + instances
	return eff * float64(instances) / float64(total)
}
