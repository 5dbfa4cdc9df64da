package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Config describes a SemperOS machine: how many kernels (and therefore PE
// groups), user PEs and memory PEs to instantiate.
type Config struct {
	// Kernels is the number of kernel PEs / PE groups (1..MaxKernels).
	Kernels int
	// UserPEs is the number of user PEs, split into contiguous groups.
	UserPEs int
	// MemPEs is the number of DRAM PEs (default 1).
	MemPEs int
	// MemBytes is the DRAM capacity per memory PE (default 64 MiB).
	MemBytes int
	// Noc overrides the NoC configuration (nil uses noc.DefaultConfig).
	Noc *noc.Config
	// Cost overrides the cost model (nil uses DefaultCostModel).
	Cost *CostModel
	// IKCBatching configures the unified inter-kernel transport: which
	// operation families (capability exchange, service queries, tree
	// revocation) aggregate into coalesced per-destination envelopes — in
	// both directions, requests and replies — and the flush policy,
	// including the adaptive flush window (see transport.go). The zero
	// value disables all batching.
	IKCBatching IKCBatching
	// Faults attaches a deterministic fault-injection plan to the NoC's
	// kernel↔kernel links (internal/fault). Setting it switches the IKC
	// protocol into reliable mode — timeouts, retransmit with backoff,
	// receiver dedup, dead-peer degradation (reliability.go). Nil keeps
	// the lossless fabric and the byte-identical baseline event trace.
	Faults *fault.Plan
	// Reliability tunes the reliable IKC mode's timers and budgets; nil
	// uses the defaults. Setting it (even with Faults nil) enables
	// reliable mode on a lossless fabric.
	Reliability *Reliability
	// Engine, when non-nil, is the simulation engine to build on instead of
	// a fresh sim.NewEngine. It must be in fresh state (new or Reset):
	// time, sequence and event counters at zero and not killed. The bench
	// harness uses this to recycle pooled engines across experiments.
	Engine *sim.Engine
	// RelaxLimits lifts the architectural sizing limits (MaxKernels,
	// MaxPEsPerKernel) for scalability studies: the machine may then be
	// built with more kernels and larger PE groups than real SemperOS
	// hardware would allow. Per-kernel resources that are sized from
	// MaxKernels (inter-kernel thread pools, envelope endpoints) grow with
	// the actual kernel count instead. The ddl.Key bit-field widths still
	// bound the machine at MaxPEs total PEs.
	RelaxLimits bool
}

func (c Config) withDefaults() Config {
	if c.Kernels <= 0 {
		c.Kernels = 1
	}
	if c.MemPEs <= 0 {
		c.MemPEs = 1
	}
	if c.MemBytes <= 0 {
		c.MemBytes = 64 << 20
	}
	return c
}

// Validate reports configuration errors against the architectural limits.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Kernels > MaxKernels && !c.RelaxLimits {
		return fmt.Errorf("core: %d kernels exceed the maximum of %d", c.Kernels, MaxKernels)
	}
	if c.UserPEs <= 0 {
		return errors.New("core: at least one user PE is required")
	}
	perKernel := (c.UserPEs + c.Kernels - 1) / c.Kernels
	if perKernel > MaxPEsPerKernel && !c.RelaxLimits {
		return fmt.Errorf("core: %d PEs per kernel exceed the maximum of %d", perKernel, MaxPEsPerKernel)
	}
	if total := c.Kernels + c.UserPEs + c.MemPEs; total > ddl.MaxPEs {
		return fmt.Errorf("core: %d total PEs exceed the DDL key space of %d", total, ddl.MaxPEs)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if r := c.Reliability; r != nil && (r.MaxRetries < 0 || r.ReplyCache < 0) {
		return fmt.Errorf("core: negative Reliability budget (MaxRetries %d, ReplyCache %d)", r.MaxRetries, r.ReplyCache)
	}
	return nil
}

// System is one simulated SemperOS machine: the NoC, all PEs with their
// DTUs, the kernels, and the global service directory.
type System struct {
	cfg  Config
	Eng  *sim.Engine
	Net  *noc.Network
	Fab  *dtu.Fabric
	Cost CostModel

	kernels []*Kernel
	member  *ddl.Membership
	userPEs []int
	memPEs  []int
	vpes    []*VPE
	peToVPE []*VPE

	// rel is the resolved reliable-IKC configuration; nil in baseline
	// lossless mode. inj is the attached fault injector, if any.
	rel *Reliability
	inj *fault.Injector

	// The service directory and the DRAM allocator are the two pieces of
	// state every kernel reads and writes directly, with no NoC message
	// (DESIGN.md, "Zero-latency edges of the kernel model").
	services map[string]*serviceEntry
	dramNext []uint64
	dramRR   int
	nextVPE  int

	// wires are the released direct inter-kernel legs awaiting reuse
	// (ikc.go, ikcWire).
	wires []*ikcWire

	// vpeProcNameFn is vpeProcName, bound once for every VPE's SpawnLazy.
	vpeProcNameFn func(id int) string
}

type serviceEntry struct {
	name   string
	key    ddl.Key
	kernel int
	vpe    *VPE
}

// NewSystem builds and boots a machine. PE numbering: kernels occupy PEs
// [0, Kernels), user PEs follow, memory PEs come last. User PEs are assigned
// to kernels in contiguous blocks (the PE groups).
func NewSystem(cfg Config) (*System, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := cfg.Kernels + cfg.UserPEs + cfg.MemPEs
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	ncfg := noc.DefaultConfig(nodes)
	if cfg.Noc != nil {
		ncfg = *cfg.Noc
		ncfg.Nodes = nodes
	}
	cost := DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	net := noc.New(eng, ncfg)
	fab := dtu.NewFabric(eng, net)
	s := &System{
		cfg:      cfg,
		Eng:      eng,
		Net:      net,
		Fab:      fab,
		Cost:     cost,
		member:   ddl.NewMembership(nodes),
		peToVPE:  make([]*VPE, nodes),
		services: make(map[string]*serviceEntry),
		dramNext: make([]uint64, cfg.MemPEs),
	}
	s.vpeProcNameFn = s.vpeProcName
	// Fault injection and the reliable IKC mode it requires. Either knob
	// alone enables reliable mode; the injector only exists with a plan.
	if cfg.Faults != nil || cfg.Reliability != nil {
		rel := Reliability{}
		if cfg.Reliability != nil {
			rel = *cfg.Reliability
		}
		rel = rel.withDefaults()
		s.rel = &rel
	}
	if cfg.Faults != nil {
		s.inj = fault.NewInjector(*cfg.Faults, cfg.Kernels)
		net.SetInjector(s.inj)
	}
	// Kernel PEs.
	for k := 0; k < cfg.Kernels; k++ {
		fab.Add(k, 0)
		s.member.Assign(k, k)
	}
	// User PEs, grouped in contiguous blocks.
	for u := 0; u < cfg.UserPEs; u++ {
		pe := cfg.Kernels + u
		fab.Add(pe, 4096) // small scratch memory per user PE
		s.userPEs = append(s.userPEs, pe)
		s.member.Assign(pe, u*cfg.Kernels/cfg.UserPEs)
	}
	// Memory PEs, managed by kernel 0.
	for m := 0; m < cfg.MemPEs; m++ {
		pe := cfg.Kernels + cfg.UserPEs + m
		fab.Add(pe, cfg.MemBytes)
		s.memPEs = append(s.memPEs, pe)
		s.member.Assign(pe, 0)
		fab.DTU(pe).Downgrade()
	}
	// Boot the kernels; the now-static table stands for every replica.
	for k := 0; k < cfg.Kernels; k++ {
		s.kernels = append(s.kernels, newKernel(s, k))
	}
	// Schedule crash recoveries: at RecoverAt the kernel's links
	// un-blackhole (fault.Injector window) and the kernel itself starts the
	// rejoin handshake as a new incarnation (rejoin.go). Validate has
	// already enforced RecoverAt > CrashAt.
	if cfg.Faults != nil {
		for _, kf := range cfg.Faults.Kernels {
			if kf.CrashAt > 0 && kf.RecoverAt > 0 && kf.Kernel >= 0 && kf.Kernel < cfg.Kernels {
				kk := s.kernels[kf.Kernel]
				eng.At(kf.RecoverAt, kk.beginRejoin)
			}
		}
	}
	return s, nil
}

// MustNew is NewSystem for tests and examples where the config is constant.
func MustNew(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Kernel returns kernel k.
func (s *System) Kernel(k int) *Kernel { return s.kernels[k] }

// Kernels returns the number of kernels.
func (s *System) Kernels() int { return len(s.kernels) }

// KernelOfPE returns the kernel managing the given PE.
func (s *System) KernelOfPE(pe int) *Kernel {
	k := s.member.KernelOf(pe)
	if k < 0 {
		return nil
	}
	return s.kernels[k]
}

// UserPEs returns the user PE ids in ascending order.
func (s *System) UserPEs() []int { return s.userPEs }

// VPEs returns all spawned VPEs in spawn order.
func (s *System) VPEs() []*VPE { return s.vpes }

// Run executes the simulation until no events remain.
func (s *System) Run() { s.Eng.Run() }

// RunCtx executes the simulation until no events remain or ctx is done,
// returning the context's error in the latter case. A cancelled system is
// still consistent; Close unwinds its parked procs.
func (s *System) RunCtx(ctx context.Context) error { return s.Eng.RunCtx(ctx) }

// RunFor advances the simulation by d cycles.
func (s *System) RunFor(d sim.Duration) { s.Eng.RunUntil(s.Eng.Now() + d) }

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.Eng.Now() }

// Close terminates the simulation, unwinding all parked processes.
func (s *System) Close() { s.Eng.Kill() }

// allocDRAM carves size bytes out of a memory PE (round-robin across memory
// PEs) and returns its PE id and offset.
func (s *System) allocDRAM(size uint64) (pe int, off uint64, err error) {
	for try := 0; try < len(s.memPEs); try++ {
		i := (s.dramRR + try) % len(s.memPEs)
		if s.dramNext[i]+size <= uint64(s.cfg.MemBytes) {
			off = s.dramNext[i]
			s.dramNext[i] += size
			s.dramRR = (i + 1) % len(s.memPEs)
			return s.memPEs[i], off, nil
		}
	}
	return 0, 0, errors.New("core: out of DRAM")
}

// FaultStats returns the fault injector's counters (zero without a plan).
func (s *System) FaultStats() fault.Stats {
	if s.inj == nil {
		return fault.Stats{}
	}
	return s.inj.Stats()
}

// TotalStats sums the per-kernel statistics.
func (s *System) TotalStats() KernelStats {
	var t KernelStats
	for _, k := range s.kernels {
		t.add(k.stats)
	}
	return t
}

// vpeProcName formats the diagnostic name of VPE id's proc.
func (s *System) vpeProcName(id int) string {
	return fmt.Sprintf("vpe%d:%s", id, s.vpes[id].Name)
}

// Spawn creates a VPE running prog on the first free user PE.
func (s *System) Spawn(name string, prog Program) (*VPE, error) {
	for _, pe := range s.userPEs {
		if s.peToVPE[pe] == nil {
			return s.SpawnOn(pe, name, prog)
		}
	}
	return nil, errors.New("core: no free user PE")
}

// SpawnOn creates a VPE running prog on a specific user PE. The VPE is set
// up by the PE's group kernel (costing kernel time) before prog starts.
func (s *System) SpawnOn(pe int, name string, prog Program) (*VPE, error) {
	if s.member.KernelOf(pe) < 0 || pe < s.cfg.Kernels || pe >= s.cfg.Kernels+s.cfg.UserPEs {
		return nil, fmt.Errorf("core: PE %d is not a user PE", pe)
	}
	if s.peToVPE[pe] != nil {
		return nil, fmt.Errorf("core: PE %d is already occupied", pe)
	}
	k := s.KernelOfPE(pe)
	v := &VPE{
		ID:     s.nextVPE,
		Name:   name,
		PE:     pe,
		sys:    s,
		kernel: k,
		dtu:    s.Fab.DTU(pe),
		prog:   prog,
	}
	s.nextVPE++
	s.vpes = append(s.vpes, v)
	s.peToVPE[pe] = v
	k.createVPE(v)
	return v, nil
}
