package workload

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/ddl"
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
// applications to the service in their PE group"). The lists are counted
// first and carved from one array, so a placement is three allocations
// whatever its size.
func place(s *core.System, services, instances int) *placement {
	k := s.Kernels()
	userPEs := s.UserPEs()
	ints := make([]int, 2*services+2*instances+2*k+len(userPEs))
	carve := func(n int) []int {
		l := ints[:n:n]
		ints = ints[n:]
		return l
	}
	lists := make([][]int, services+k)
	pl := &placement{
		svcGroup:     carve(services),
		instGroup:    carve(instances),
		svcOfGroup:   carve(k),
		instOfSvc:    lists[:services:services],
		groupFreePEs: lists[services:],
	}
	// Each list starts empty with room for its count, so the appends below
	// fill it in place.
	pes := carve(k) // group -> how many user PEs it has
	for _, pe := range userPEs {
		pes[s.KernelOfPE(pe).ID()]++
	}
	for g, n := range pes {
		pl.groupFreePEs[g] = carve(n)[:0]
	}
	for _, pe := range userPEs {
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
	users := carve(services) // service -> how many instances use it
	for i := 0; i < instances; i++ {
		g := i % k
		pl.instGroup[i] = g
		users[pl.svcOfGroup[g]]++
	}
	for j, n := range users {
		pl.instOfSvc[j] = carve(n)[:0]
	}
	for i, g := range pl.instGroup {
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

// numbered returns pre followed by i, for every i < n, carved from one
// string.
func numbered(pre string, n int) []string {
	var digits [20]byte
	var b strings.Builder
	b.Grow(n * (len(pre) + len(strconv.AppendInt(digits[:0], int64(n), 10))))
	for i := 0; i < n; i++ {
		b.WriteString(pre)
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
	}
	all, names := b.String(), make([]string, n)
	for i := range names {
		l := len(pre) + len(strconv.AppendInt(digits[:0], int64(i), 10))
		names[i], all = all[:l], all[l:]
	}
	return names
}

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
// trace, a count that is not positive, more services or instances than the
// DDL key space has PEs, or a machine core.Config.Validate rejects.
func (cfg Config) Validate() error {
	if cfg.Trace == nil {
		return errors.New("workload: no trace")
	}
	if cfg.Kernels <= 0 || cfg.Services <= 0 || cfg.Instances <= 0 {
		return errors.New("workload: kernels, services, instances must be positive")
	}
	// Each count is bounded before machine adds them, which a count near
	// MaxInt would wrap.
	if cfg.Services > ddl.MaxPEs {
		return fmt.Errorf("workload: %d services exceed the DDL key space of %d", cfg.Services, ddl.MaxPEs)
	}
	if cfg.Instances > ddl.MaxPEs {
		return fmt.Errorf("workload: %d instances exceed the DDL key space of %d", cfg.Instances, ddl.MaxPEs)
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
	r := &replayRun{
		tr:       cfg.Trace,
		pl:       pl,
		prefixes: numbered("inst", cfg.Instances),
		services: numbered("m3fs", cfg.Services),
		slots:    slots(cfg.Trace),
		results:  make([]InstanceResult, cfg.Instances),
	}
	r.clients, r.files = make([]m3fs.Client, cfg.Instances), make([]*m3fs.File, cfg.Instances*r.slots)
	// Each service's image holds the trees of the instances it serves, in
	// instance order: their prefixes, gathered into one array.
	bySvc, trees := make([]string, 0, cfg.Instances), make([][]string, cfg.Services)
	for j, insts := range pl.instOfSvc {
		for _, i := range insts {
			bySvc = append(bySvc, r.prefixes[i])
		}
		trees[j] = bySvc[len(bySvc)-len(insts):]
	}
	if r.allReady, err = boot(sys, pl, cfg.Trace, r.services, trees); err != nil {
		return nil, err
	}

	// Instances: wait for all services, then replay.
	names := func(int) string { return cfg.Trace.Name }
	if r.firstVPE, err = spawnRow(sys, pl, pl.instGroup, names, r.instance); err != nil {
		return nil, err
	}

	sys.Run()

	// A machine that drains with work outstanding (kernel threads still
	// holding a job, syscalls that never returned, credits or receive slots
	// not given back), or with leaked or broken capability state, raises no
	// error by itself; the audit is what notices.
	unfinished := sys.Audit()
	res := &Result{Instances: r.results}
	for _, in := range r.results {
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

// replayRun is what the instances of one Run share: one program serves
// them all, and the tables it reads are made once per run.
type replayRun struct {
	tr       *trace.Trace
	pl       *placement
	prefixes []string // instance -> its directory in its service's image
	services []string // service -> its registered name
	// clients holds every instance's connection to its service, files
	// every instance's open files by trace slot: instance i's are
	// files[i*slots:(i+1)*slots].
	clients  []m3fs.Client
	files    []*m3fs.File
	slots    int
	results  []InstanceResult
	firstVPE int // the VPE id of instance 0
	allReady *sim.WaitGroup
}

// instance is the program of every instance VPE: wait for all services,
// then replay the trace against the one preferred in the instance's group.
func (r *replayRun) instance(v *core.VPE, p *sim.Proc) {
	i := v.ID - r.firstVPE
	r.allReady.Wait(p)
	res := &r.results[i]
	res.VPE, res.Start = v.ID, p.Now()
	svc := r.services[r.pl.svcOfGroup[r.pl.instGroup[i]]]
	res.Err = replay(v, p, r.tr, svc, r.prefixes[i], &r.clients[i], r.files[i*r.slots:(i+1)*r.slots])
	res.End, res.CapOps = p.Now(), v.CapOps()
}

// serviceBoot is what the m3fs services of one run share: one program
// boots them all, each from its row of the tables.
type serviceBoot struct {
	tr         *trace.Trace
	shape      *treeShape
	names      []string   // service -> its registered name
	trees      [][]string // service -> the instance prefixes its image holds
	imageBytes uint64
	first      int           // the VPE id of service 0
	ready      sim.WaitGroup // done once every service is registered
	readyFn    func(*m3fs.FS)
}

// serve is the program of every service VPE: preload the image, register,
// and serve forever.
func (b *serviceBoot) serve(v *core.VPE, p *sim.Proc) {
	j := v.ID - b.first
	fs := m3fs.NewFS(m3fs.Config{ServiceName: b.names[j], ImageBytes: b.imageBytes}, v)
	b.shape.preload(fs, b.tr, b.trees[j])
	fs.Serve(p, b.readyFn)
}

// boot spawns the m3fs services of an experiment in id order, service j
// named names[j] on a PE of its group pl.svcGroup[j], its image preloaded
// with tr's files under each of prefixes[j] and sized for the longest
// prefix list. The returned group is done once every service is ready.
func boot(sys *core.System, pl *placement, tr *trace.Trace, names []string, prefixes [][]string) (*sim.WaitGroup, error) {
	longest := 1
	for _, ps := range prefixes {
		longest = max(longest, len(ps))
	}
	b := &serviceBoot{
		tr:         tr,
		shape:      shapeOf(tr),
		names:      names,
		trees:      prefixes,
		imageBytes: tr.Footprint(m3fs.ExtentBytes)*uint64(longest) + 8<<20,
	}
	b.readyFn = func(*m3fs.FS) { b.ready.Done() }
	b.ready.Add(len(prefixes))
	var err error
	if b.first, err = spawnRow(sys, pl, pl.svcGroup, func(j int) string { return names[j] }, b.serve); err != nil {
		return nil, err
	}
	return &b.ready, nil
}

// spawnRow spawns one VPE per entry of groups, VPE i named name(i) on a
// free PE of group groups[i], all running prog, and returns the first one's
// id. They are the machine's next VPEs, in order, so that prog can tell
// from a VPE's id which one it is running as.
func spawnRow(sys *core.System, pl *placement, groups []int, name func(i int) string, prog core.Program) (first int, err error) {
	for i, g := range groups {
		pe, err := pl.takePE(g)
		if err != nil {
			return 0, err
		}
		v, err := sys.SpawnOn(pe, name(i), prog)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = v.ID
		} else if v.ID != first+i {
			return 0, fmt.Errorf("workload: VPE %d of a row is VPE %d, not %d", i, v.ID, first+i)
		}
	}
	return first, nil
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
