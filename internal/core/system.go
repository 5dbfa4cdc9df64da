package core

import (
	"errors"
	"fmt"
	"reflect"

	"repro/internal/cap"
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
	// Cost overrides the cost model (nil uses DefaultCostModel).
	Cost *CostModel
	// IKCBatching configures the unified inter-kernel transport: which
	// operation families (capability exchange, service queries, tree
	// revocation) aggregate into per-destination envelopes — in both
	// directions, requests and replies (see transport.go). The zero value
	// disables all batching.
	IKCBatching IKCBatching
	// Faults attaches a deterministic fault-injection plan to the NoC's
	// kernel↔kernel links (internal/fault). Setting it switches the IKC
	// protocol into reliable mode — timeouts, retransmit with backoff,
	// receiver dedup, dead-peer degradation (reliability.go); a plan that
	// injects nothing (&fault.Plan{}) is reliable mode on a lossless fabric.
	// Nil keeps the lossless fabric and the byte-identical baseline event
	// trace.
	Faults *fault.Plan
	// Engine, when non-nil, is the simulation engine to build on instead of
	// a fresh sim.NewEngine. It must be in fresh state (new or Reset):
	// time, sequence and event counters at zero and not killed. The bench
	// harness uses this to recycle pooled engines across experiments.
	Engine *sim.Engine
	// RelaxLimits lifts the architectural sizing limits (MaxKernels,
	// MaxPEsPerKernel) for scalability studies: the machine may then be
	// built with more kernels and larger PE groups than real SemperOS
	// hardware would allow. Per-kernel resources that are sized from
	// MaxKernels (the inter-kernel thread pools) grow with the actual kernel
	// count instead. The ddl.Key bit-field widths still bound the machine at
	// MaxPEs total PEs.
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
	// Each count is bounded before the sums below, which a count near
	// MaxInt would wrap.
	if n := max(c.Kernels, c.UserPEs, c.MemPEs); n > ddl.MaxPEs {
		return fmt.Errorf("core: %d PEs of one kind exceed the DDL key space of %d", n, ddl.MaxPEs)
	}
	perKernel := (c.UserPEs + c.Kernels - 1) / c.Kernels
	if perKernel > MaxPEsPerKernel && !c.RelaxLimits {
		return fmt.Errorf("core: %d PEs per kernel exceed the maximum of %d", perKernel, MaxPEsPerKernel)
	}
	if total := c.Kernels + c.UserPEs + c.MemPEs; total > ddl.MaxPEs {
		return fmt.Errorf("core: %d total PEs exceed the DDL key space of %d", total, ddl.MaxPEs)
	}
	if c.Faults != nil {
		return c.Faults.Validate()
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

	// inj is the attached fault injector, nil without a plan.
	inj *fault.Injector

	// The service directory and the DRAM allocator are the two pieces of
	// state every kernel reads and writes directly, with no NoC message
	// (DESIGN.md, "Zero-latency edges of the kernel model").
	services map[string]*serviceEntry
	dramNext []uint64
	dramRR   int
	nextVPE  int

	// wires, reqs and xmits recycle the inter-kernel legs (ikc.go,
	// ikcWire), request records (ikc.go, Kernel.request) and reliable-mode
	// transmission records (reliability.go, xmitState). Every request
	// record is back in reqs at quiescence.
	wires sim.Recycler[ikcWire]
	reqs  sim.Recycler[ikcRequest]
	xmits sim.Recycler[xmitState]

	// vpeRecs, memObjs, sessObjs, sessRecs and svcRecs are the blocks the
	// machine's VPEs (SpawnOn), memory and session objects (newMemObject,
	// newSessionObject), client session handles (CreateSession) and
	// service records (RegisterService) come from.
	vpeRecs  sim.Blocks[VPE]
	memObjs  sim.Blocks[cap.MemObject]
	sessObjs sim.Blocks[cap.SessionObject]
	sessRecs sim.Blocks[Session]
	svcRecs  sim.Blocks[localService]
	// svcItems is where a service's request queue gets its storage (layout).
	svcItems sim.Blocks[svcItem]
	// recBlock is how many revocation records one block of the machine
	// holds, and how many runs one block of each kind of list below: a
	// quarter of its user PEs, 2 to 16. A loaded machine has a record or two
	// per VPE out at once, and the quick sweep boots hundreds of small
	// machines, which a fixed block sized for a large one would cost bytes.
	recBlock int
	// revRecs, revKeys and revUps are where the kernels' revocation records,
	// the mark walks' and batched revoke requests' key lists and the records'
	// parent lists past the first two come from (revoke.go: newRev, keyRoom,
	// await).
	revRecs sim.Blocks[revState]
	revKeys sim.Blocks[ddl.Key]
	revUps  sim.Blocks[*revState]
	// queues, reqLists, repLists, liveLists and dedups are where the
	// transport's aggregation queues, request, reply and live-transmission
	// lists (ikc.go: reqRoom, repRoom, liveRoom) and the reliable layer's
	// duplicate filters (reliability.go: dedupOf) come from.
	queues    sim.Blocks[sendQueue]
	reqLists  sim.Blocks[*ikcRequest]
	repLists  sim.Blocks[ikcReply]
	liveLists sim.Blocks[*xmitState]
	dedups    sim.Blocks[dedup]

	// vpeProcNameFn and vpeRunFn are vpeProcName and vpeRun, bound once
	// for every VPE's SpawnLazy.
	vpeProcNameFn func(id int) string
	vpeRunFn      func(p *sim.Proc)
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
	cost := DefaultCostModel()
	if cfg.Cost != nil {
		cost = *cfg.Cost
	}
	net := noc.New(eng, noc.DefaultConfig(nodes))
	fab := dtu.NewFabric(eng, net)
	s := &System{
		cfg:      cfg,
		Eng:      eng,
		Net:      net,
		Fab:      fab,
		Cost:     cost,
		member:   ddl.NewMembership(nodes),
		kernels:  make([]*Kernel, cfg.Kernels),
		userPEs:  make([]int, 0, cfg.UserPEs),
		memPEs:   make([]int, 0, cfg.MemPEs),
		vpes:     make([]*VPE, 0, cfg.UserPEs),
		peToVPE:  make([]*VPE, nodes),
		services: make(map[string]*serviceEntry),
		dramNext: make([]uint64, cfg.MemPEs),
		recBlock: min(max(cfg.UserPEs/4, 2), 16),
	}
	s.vpeProcNameFn, s.vpeRunFn = s.vpeProcName, s.vpeRun
	// Fault injection; the kernels run the reliable IKC mode it requires
	// (newKernel).
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
	recs, peers := make([]Kernel, cfg.Kernels), make([]*peer, cfg.Kernels*cfg.Kernels)
	for k := range recs {
		newKernel(&recs[k], s, k, peers[k*cfg.Kernels:(k+1)*cfg.Kernels:(k+1)*cfg.Kernels])
		s.kernels[k] = &recs[k]
	}
	s.layout(recs)
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

// capsPerVPE is how many capabilities a kernel's store has room for per
// VPE of its group at boot; a VPE of a loaded application run holds 5 to 20.
const capsPerVPE = 4

// layout gives the kernels' records their boot-time capacity from the size
// of their groups (DESIGN.md "Boot-time layout"): a group's VPEs are all
// that wait for its kernel's CPU, a syscall thread or a query answer. Each
// kind of storage is one allocation for the machine.
func (s *System) layout(recs []Kernel) {
	n, all := len(recs), s.cfg.UserPEs
	g := (all + n - 1) / n
	stores, gens := cap.NewStores(n, g, g*capsPerVPE), ddl.NewGenerators(n, g)
	var procs sim.Blocks[*sim.Proc]
	var jobs sim.Blocks[job]
	var queries sim.Blocks[*query]
	for i := range recs {
		k := &recs[i]
		m := len(k.group)
		k.store, k.gen = &stores[i], &gens[i]
		k.cpu.Use(procs.Take(m, 2*all))
		k.syscallPool.q.Use(jobs.Take(m, all), procs.Take(m, 2*all))
		k.queries.UseFree(queries.Take(m, all))
	}
}

// MustNew is NewSystem for tests and examples where the config is constant.
func MustNew(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

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

// RunFor runs the events due within d cycles of the clock:
// Eng.RunUntil(Now()+d). RunUntil leaves the clock at the last event it ran,
// not at its bound, so across an empty gap wider than d RunFor runs nothing
// and Now() stays where it was: a loop of RunFor calls never crosses such a
// gap, and a caller that must cross one steps an absolute bound
// (Eng.RunUntil) instead. workload.RunNginx's window ends where its last event ran, and
// Fig 10's duration with it.
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

// memObjBlock is how many memory objects one allocation serves.
const memObjBlock = 64

// newMemObject returns a pointer to a copy of o in the machine's current
// block of memory objects. Objects are immutable (cap.Object), so a slot is
// never reused: a block is garbage once none of its objects is referenced.
// One block serves every kernel of the machine, since only one proc runs at
// a time.
func (s *System) newMemObject(o cap.MemObject) *cap.MemObject {
	obj := s.memObjs.New(memObjBlock)
	*obj = o
	return obj
}

// sessionBlock is how many session objects, and how many client session
// handles, one allocation serves; serviceBlock is how many service records
// one does.
const (
	sessionBlock = 64
	serviceBlock = 8
)

// newSessionObject is newMemObject for session objects.
func (s *System) newSessionObject(o cap.SessionObject) *cap.SessionObject {
	obj := s.sessObjs.New(sessionBlock)
	*obj = o
	return obj
}

// FaultStats returns the fault injector's counters (zero without a plan).
func (s *System) FaultStats() fault.Stats {
	if s.inj == nil {
		return fault.Stats{}
	}
	return s.inj.Stats()
}

// TotalStats sums the per-kernel statistics field by field.
func (s *System) TotalStats() KernelStats {
	var t KernelStats
	sum := reflect.ValueOf(&t).Elem()
	for _, k := range s.kernels {
		st := reflect.ValueOf(&k.stats).Elem()
		for i := 0; i < sum.NumField(); i++ {
			f := sum.Field(i)
			f.SetUint(f.Uint() + st.Field(i).Uint())
		}
	}
	return t
}

// vpeRun is the body of every VPE's proc: the program of the VPE whose id
// the proc was spawned with.
func (s *System) vpeRun(p *sim.Proc) {
	v := s.vpes[p.Arg()]
	v.prog(v, p)
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
	// One block holds a VPE for every user PE: a machine mostly runs one on
	// each, and an exited VPE's PE may take another.
	v := s.vpeRecs.New(s.cfg.UserPEs)
	*v = VPE{
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
