package core

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// KernelStats counts per-kernel activity. Busy is the accumulated CPU time
// of the kernel PE, which divided by elapsed time gives its utilization.
type KernelStats struct {
	Syscalls      uint64
	IKCSent       uint64 // request-direction wire messages sent (an envelope counts once)
	IKCReceived   uint64 // request-direction wire messages received
	IKCBatched    uint64 // requests that travelled inside a coalesced envelope
	IKCBatches    uint64 // coalesced request envelopes sent
	IKCRepSent    uint64 // reply-direction wire messages sent (an envelope counts once)
	IKCRepBatched uint64 // replies that travelled inside a coalesced envelope
	IKCRepBatches uint64 // coalesced reply envelopes sent
	Obtains       uint64
	Delegates     uint64
	Revokes       uint64
	Sessions      uint64
	CapsCreated   uint64
	CapsDeleted   uint64
	Orphans       uint64
	Busy          sim.Duration

	// Reliable-mode counters (reliability.go); all zero with faults off.
	Retransmits     uint64       // wire transmissions re-sent after a timeout
	DupSuppressed   uint64       // received requests suppressed as duplicates
	ReplayedReplies uint64       // cached replies replayed for duplicates
	LateReplies     uint64       // replies for unknown (already resolved) seqs
	FailFast        uint64       // requests failed immediately: peer already dead
	DeadPeers       uint64       // peers this kernel declared dead
	Recovered       uint64       // transmissions that completed after a retry
	RecoveryCycles  sim.Duration // summed first-send→completion time of recovered transmissions
	RevokedInFlight uint64       // spanning exchanges killed by a revoke racing their reply

	// Crash-recovery counters (rejoin.go); all zero without a RecoverAt.
	Rejoins          uint64       // rejoin handshakes completed as the recovering kernel
	RejoinCycles     sim.Duration // summed recovery-start→handshake-completion time
	StaleIncarnation uint64       // envelopes rejected: sent by or to a dead incarnation
}

func (a *KernelStats) add(b KernelStats) {
	a.Syscalls += b.Syscalls
	a.IKCSent += b.IKCSent
	a.IKCReceived += b.IKCReceived
	a.IKCBatched += b.IKCBatched
	a.IKCBatches += b.IKCBatches
	a.IKCRepSent += b.IKCRepSent
	a.IKCRepBatched += b.IKCRepBatched
	a.IKCRepBatches += b.IKCRepBatches
	a.Obtains += b.Obtains
	a.Delegates += b.Delegates
	a.Revokes += b.Revokes
	a.Sessions += b.Sessions
	a.CapsCreated += b.CapsCreated
	a.CapsDeleted += b.CapsDeleted
	a.Orphans += b.Orphans
	a.Busy += b.Busy
	a.Retransmits += b.Retransmits
	a.DupSuppressed += b.DupSuppressed
	a.ReplayedReplies += b.ReplayedReplies
	a.LateReplies += b.LateReplies
	a.FailFast += b.FailFast
	a.DeadPeers += b.DeadPeers
	a.Recovered += b.Recovered
	a.RecoveryCycles += b.RecoveryCycles
	a.RevokedInFlight += b.RevokedInFlight
	a.Rejoins += b.Rejoins
	a.RejoinCycles += b.RejoinCycles
	a.StaleIncarnation += b.StaleIncarnation
}

// CapOps returns the number of capability-modifying and session operations,
// the metric reported in the paper's Table 4.
func (s KernelStats) CapOps() uint64 {
	return s.Obtains + s.Delegates + s.Revokes + s.Sessions
}

// Kernel is one SemperOS microkernel, running on its dedicated kernel PE
// and managing the capabilities of its PE group.
//
// The kernel is cooperatively multithreaded: its work runs in sim.Procs
// that all contend for a single CPU token (the kernel PE has one core), and
// release it only at preemption points — exactly the paper's §4.2 design.
// The thread pool is bounded by Equation 1: V_group syscall threads plus
// K_max * M_inflight inter-kernel threads (with at most two of the latter
// budget used for incoming revoke requests).
type Kernel struct {
	id     int
	pe     int
	sys    *System
	dtu    *dtu.DTU
	store  *cap.Store
	gen    *ddl.Generator
	member *ddl.Membership
	group  []int // user PEs of this group

	cpu  *sim.Semaphore // the kernel PE's single core
	link *sim.Semaphore // the group's shared mesh-region bandwidth
	// holder is the wait record of the thread that took the CPU last — while
	// a thread runs with the CPU held, its own (kthread.go).
	holder *kthread

	syscallPool    *pool
	ikcPool        *pool
	revokePool     *pool
	completionPool *pool // revoke-reply processing ("main loop" work)

	// xport is the unified IKC transport: per-destination aggregation
	// queues and the batching policy (transport.go).
	xport *transport

	// rt is the reliable-IKC state (retransmission tracking, receiver
	// dedup, dead-peer verdicts); nil in the baseline lossless mode.
	rt *relState

	// incarnation numbers this kernel's lifetimes, starting at 1 and
	// bumped at every scripted recovery (rejoin.go). It stamps outgoing
	// IKC envelopes so peers can tell a live request from a dead
	// incarnation's retransmit.
	incarnation uint32

	// orphanFixes records cross-kernel tree-maintenance operations that
	// failed with ErrPeerDead, replayed when the peer rejoins (rejoin.go).
	orphanFixes []orphanFix

	// inflight limits unprocessed requests per destination kernel,
	// indexed densely by kernel id (entries created lazily). deferred holds,
	// per destination, the stamped forwards of revoke threads that found no
	// credit (post, creditBack); allocated on the first deferral.
	inflight []*sim.Semaphore
	deferred []sim.FIFO[*ikcRequest]
	pending  map[uint64]*sim.Future[*ikcReply]
	seq      uint64

	// queries are the released VPE/service query records awaiting reuse
	// (query).
	queries []*query

	// pendingDelegations holds capabilities created by the delegate
	// two-way handshake that await the originator's acknowledgement.
	pendingDelegations ddl.KeyMap[*cap.Capability]

	// revocations maps every marked capability to the record of the
	// revocation that marked it (paper Algorithm 1); revFree heads the list
	// of released records awaiting reuse (newRev).
	revocations ddl.KeyMap[*revState]
	revFree     *revState

	stats KernelStats
}

func newKernel(s *System, id int) *Kernel {
	k := &Kernel{
		id:          id,
		pe:          id,
		incarnation: 1,
		sys:         s,
		dtu:         s.Fab.DTU(id),
		store:       cap.NewStore(),
		gen:         ddl.NewGenerator(),
		member:      s.member,
		cpu:         sim.NewSemaphore(s.Eng, 1),
		link:        sim.NewSemaphore(s.Eng, 1),
		inflight:    make([]*sim.Semaphore, s.cfg.Kernels),
		pending:     make(map[uint64]*sim.Future[*ikcReply]),
	}
	for _, pe := range s.userPEs {
		if s.member.KernelOf(pe) == id {
			k.group = append(k.group, pe)
		}
	}
	k.syscallPool = newPool(k, "sys", max(len(k.group), 1))
	k.ikcPool = newPool(k, "ikc", k.ikcWindow())
	k.revokePool = newPool(k, "rev", RevokeThreads)
	k.xport = newTransport(k, s.cfg.IKCBatching.withDefaults())
	if s.rel != nil {
		k.rt = newRelState(k, *s.rel)
	}
	// Configure the kernel DTU's syscall receive endpoints; messages are
	// dispatched to the syscall pool.
	for ep := kernelSyscallEP0; ep < kernelSyscallEP0+SyscallRecvEPs; ep++ {
		if err := k.dtu.ConfigureRecv(k.dtu, ep, dtu.DefaultSlots, k.onSyscallMsg); err != nil {
			panic(err)
		}
	}
	// The coalesced request-envelope endpoint. One envelope is one wire
	// message and occupies one slot, so the in-flight bound per peer sizes
	// the budget.
	must(k.dtu.ConfigureRecvVec(k.dtu, ikcBatchEP, k.ikcWindow(), k.recvBatch))
	// The coalesced reply-envelope endpoint. The demux frees every carried
	// message within the delivery event, so occupancy is transient; the
	// budget mirrors the batch endpoint's for symmetry.
	must(k.dtu.ConfigureRecvVec(k.dtu, ikcReplyEP, k.ikcWindow(), k.recvReplyVec))
	return k
}

// ikcWindow is the total inter-kernel in-flight budget this kernel must be
// able to absorb: every peer may have MaxInflight requests outstanding. For
// configurations within the architectural limit this is the historical
// MaxKernels*MaxInflight constant; relaxed-limit scale runs grow it with the
// actual kernel count.
func (k *Kernel) ikcWindow() int {
	return max(MaxKernels, k.sys.cfg.Kernels) * MaxInflight
}

// ID returns the kernel's id.
func (k *Kernel) ID() int { return k.id }

// PE returns the kernel PE.
func (k *Kernel) PE() int { return k.pe }

// Group returns the user PEs managed by this kernel.
func (k *Kernel) Group() []int { return k.group }

// Stats returns a snapshot of the kernel's counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Incarnation returns the kernel's current incarnation number: 1 unless it
// crashed and recovered (rejoin.go bumps it at every scripted recovery).
func (k *Kernel) Incarnation() uint32 { return k.incarnation }

// Store exposes the mapping database for tests and diagnostics.
func (k *Kernel) Store() *cap.Store { return k.store }

// ThreadPoolSize returns the bound of Equation 1:
// V_group + K_max * M_inflight.
func (k *Kernel) ThreadPoolSize() int {
	return len(k.group) + k.ikcWindow()
}

// charge spends d cycles of kernel CPU time that the thread owes until it
// next settles (sim.Proc.Charge): the cycles pass then, and the thread is
// not switched out and back in for them now. The caller must hold the CPU
// token. A thread gives the CPU up only at preemption points (paper §4.2), so
// what it does to state only CPU holders touch — the capability store, the
// key generator, revocations, pendingDelegations, a VPE's in-flight obtain
// record, the counters — no other thread can observe before the next of them, and
// releaseCPU settles. Everything else is somebody else's to see, and wants
// the time to have passed first: a message or a reply (event handlers run
// at their instants whoever holds the CPU), a user DTU's endpoints, state
// shared between kernels (the DRAM allocator, the service directory),
// what timers and the fault layer write (rt, dead-peer
// verdicts, a VPE's exited flag). Such code follows an exec, or calls
// p.Settle itself. DESIGN.md "Owed time" lists every stretch that charges
// and the settle point that ends it.
func (k *Kernel) charge(p *sim.Proc, d sim.Duration) {
	k.stats.Busy += d
	p.Charge(d)
}

// exec spends d cycles of kernel CPU time, and everything the thread owes,
// now: when it returns, the thread's clock is the machine's. The caller must
// hold the CPU token.
func (k *Kernel) exec(p *sim.Proc, d sim.Duration) {
	k.charge(p, d)
	p.Settle()
}

// jobKind says what a kernel thread is to do with a job.
type jobKind uint8

const (
	jobSyscall    jobKind = iota // handle the syscall message
	jobRequest                   // dispatch the inter-kernel request
	jobBatch                     // pick up and dispatch the request envelope
	jobRevokeDone                // account one completed child revocation
	jobFunc                      // run the function, which brackets the CPU itself: boot, rejoin
)

// job is one unit of kernel-thread work: a kind and its subject, whose
// dynamic type the kind fixes — the syscall message (*dtu.Message), the
// request (*ikcRequest), the first message of the envelope (*dtu.Message; the
// rest are its Vector), the revocation (*revState), the function (jobBody).
// All of them are pointer-shaped, so queueing a job allocates nothing, and a
// job is three words: every thread's wait record holds one (kthread).
type job struct {
	kind jobKind
	subj any
}

// jobBody is a jobFunc's subject. t is the record of the thread running it,
// which acquireCPU wants.
type jobBody = func(p *sim.Proc, t *kthread)

// pool is a lazily grown, bounded worker pool of kernel threads running
// jobs on cooperative procs.
type pool struct {
	k       *Kernel
	name    string
	max     int
	spawned int
	q       *sim.Queue[job]
	// threads lists the spawned threads' wait records, newest first; spare
	// are the records of the current chunk no thread has taken yet. Records
	// come threadChunk at a time: a pool that needs one thread mostly needs
	// several (a group's VPEs boot at one instant), and a malloc per thread
	// would be the only one a thread costs outside sim.
	threads *kthread
	spare   []kthread
	records int // allocated so far, at most max
	// threadName and work as func values, bound once: taking them per
	// spawned thread would allocate two closures per thread.
	nameFn func(idx int) string
	workFn func(p *sim.Proc)
}

func newPool(k *Kernel, name string, max int) *pool {
	pl := &pool{k: k, name: name, max: max, q: sim.NewQueue[job](k.sys.Eng)}
	pl.nameFn, pl.workFn = pl.threadName, pl.work
	return pl
}

// threadName formats the diagnostic name of the pool's idx-th thread.
func (pl *pool) threadName(idx int) string {
	return fmt.Sprintf("k%d/%s%d", pl.k.id, pl.name, idx)
}

// submit enqueues a job, spawning a worker if none is idle and the pool
// limit permits. If the pool is saturated the job waits in the queue — the
// kernel's defense against request floods (paper §4.2).
func (pl *pool) submit(j job) {
	if pl.q.Waiters() == 0 && pl.spawned < pl.max {
		pl.spawned++
		pl.k.sys.Eng.SpawnLazy(pl.nameFn, pl.spawned, pl.workFn)
	}
	pl.q.Push(j)
}

// work is the body of one kernel thread: run a job with the CPU held,
// repeat. Everything in between — the job's reply, giving the CPU up, the
// next job, the CPU for it — is the thread's wait record t at work, engine
// side (kthread.Ready), so the body is switched in once per job and not to
// find out that there is nothing to do yet. What a job still owes when its
// handler returns elapses in that park too. reqs is the thread's scratch for
// the envelope it is dispatching.
func (pl *pool) work(p *sim.Proc) {
	k := pl.k
	t := pl.newThread()
	var reqs []*ikcRequest
	for {
		p.ParkOn(t)
		switch j := &t.job; j.kind {
		case jobFunc:
			j.subj.(jobBody)(p, t)
			t.stage = stageJob // the body gave the CPU back itself: no epilogue
			continue
		case jobSyscall:
			k.handleSyscall(p, j.subj.(*dtu.Message))
		case jobRequest:
			k.handleRequest(p, j.subj.(*ikcRequest))
		case jobBatch:
			reqs = k.handleBatch(p, j.subj.(*dtu.Message).Vector(), reqs[:0])
			// The messages are gone; the first request stands for the envelope
			// from here on — its sender and kind name the reply queue the
			// epilogue flushes.
			j.subj = reqs[0]
			clear(reqs)
		case jobRevokeDone:
			k.revokeReplyArrived(p, j.subj.(*revState))
		}
		t.stage = stageEpilogue
	}
}

// threadChunk is how many wait records a pool allocates at a time.
const threadChunk = 4

// newThread hands the calling thread its wait record, parked for a job.
func (pl *pool) newThread() *kthread {
	if len(pl.spare) == 0 {
		pl.spare = make([]kthread, min(threadChunk, pl.max-pl.records))
		pl.records += len(pl.spare)
	}
	t := &pl.spare[0]
	pl.spare = pl.spare[1:]
	t.pl, t.next, t.stage = pl, pl.threads, stageJob
	pl.threads = t
	return t
}

// onSyscallMsg is the DTU handler for the kernel's syscall endpoints.
func (k *Kernel) onSyscallMsg(m *dtu.Message) {
	k.syscallPool.submit(job{kind: jobSyscall, subj: m})
}

// createVPE registers a VPE with its group kernel, configures its DTU and
// starts the program. The setup costs kernel time, so spawning many VPEs
// serializes at their group kernels (visible in the application benchmarks
// as startup cost).
func (k *Kernel) createVPE(v *VPE) {
	k.syscallPool.submit(job{kind: jobFunc, subj: func(p *sim.Proc, t *kthread) {
		k.acquireCPU(p, t)
		k.exec(p, k.sys.Cost.VPECreate)
		// Syscall channel: user EP 0 sends to one of the kernel's syscall
		// endpoints; one credit models the single outstanding syscall.
		sysEP := kernelSyscallEP0 + (v.PE % SyscallRecvEPs)
		must(v.dtu.ConfigureSend(k.dtu, vpeSyscallSendEP, k.pe, sysEP, 1, uint64(v.ID)))
		must(v.dtu.ConfigureRecv(k.dtu, vpeSyscallReplyEP, 2, nil))
		must(v.dtu.ConfigureRecv(k.dtu, vpeServiceReplyEP, 2, nil))
		v.dtu.Downgrade()
		// The VPE's root capability: control over itself.
		vcap := &cap.Capability{
			Key:    k.gen.Next(v.PE, v.ID, ddl.TypeVPE),
			Owner:  v.ID,
			Sel:    k.store.AllocSel(v.ID),
			Object: &cap.VPEObject{VPE: v.ID, PE: v.PE},
			Perm:   dtu.PermRW,
		}
		k.store.Insert(vcap)
		k.stats.CapsCreated++
		v.selfSel = vcap.Sel
		k.releaseCPU(p)
		v.start()
	}})
}

// vpeOf returns the VPE for a global id if it is local to this kernel.
func (k *Kernel) vpeOf(id int) *VPE {
	if id < 0 || id >= len(k.sys.vpes) {
		return nil
	}
	v := k.sys.vpes[id]
	if v == nil || v.kernel != k {
		return nil
	}
	return v
}

// gone reports whether v — a vpeOf result — is missing or has exited. A VPE
// can be killed from an event at any instant (VPE.Kill), so the flag is not
// the CPU holder's: a thread that may owe time reads it through gone, which
// lets that time pass first. All callers but handleDelegateAck park on the
// VPE's consent next or answer straight away, so for them this is a switch
// that would happen anyway.
func (k *Kernel) gone(p *sim.Proc, v *VPE) bool {
	p.Settle()
	return v == nil || v.exited
}

// queryStage says what a query does when its next event fires.
type queryStage uint8

const (
	stageAtService queryStage = iota // arrived at the service's PE: queue it for ServeLoop
	stageAtVPE                       // arrived at the VPE's PE: run its exchange handler
	stageDecided                     // the VPE's decision time is over: send the answer
	stageAnswered                    // the answer arrived at the kernel: resume the thread
)

// query is one question a kernel thread puts to a VPE of its own group — a
// service (queryService) or the partner of a direct exchange (askVPE) — and
// parks on. Like an ikcWire it is its own event on every leg of the round
// trip and is recycled, through Kernel.queries. The asking thread owns the
// record from newQuery to release; the service reads ev and writes res while
// that thread is parked, and nobody holds the record past the answer's
// arrival. The fault layer touches kernel-to-kernel links only, so these
// legs are delivered exactly once.
type query struct {
	stage  queryStage
	k      *Kernel
	v      *VPE
	ev     svcEvent      // the question to a service
	xq     ExchangeQuery // the question to an exchange partner
	res    SvcResult     // the service's answer
	accept bool          // the partner's answer
	done   bool
	waiter *sim.Proc
	fire   func() // onFire, bound once
}

// newQuery takes a record off the free list (or makes one) for a question
// from k to v.
func (k *Kernel) newQuery(v *VPE) *query {
	var q *query
	if n := len(k.queries); n > 0 {
		q = k.queries[n-1]
		k.queries = k.queries[:n-1]
	} else {
		q = &query{k: k}
		q.fire = q.onFire
	}
	q.v = v
	return q
}

func (q *query) release() {
	*q = query{k: q.k, fire: q.fire}
	q.k.queries = append(q.k.queries, q)
}

// ask sends q to its VPE's PE and parks the calling kernel thread until the
// answer is back — a preemption point, like blockOn: the CPU is released
// while parked and re-acquired afterwards. The question leaves when the
// thread's time is up, so what it owes is settled first.
func (q *query) ask(p *sim.Proc, stage queryStage, bytes int) {
	k := q.k
	q.stage = stage
	p.Settle()
	k.sys.Net.Send(k.pe, q.v.PE, bytes, q.fire)
	k.pause(p, q)
}

// Ready implements sim.Waiter for the asking thread: the answer is back, or
// the thread is the one its arrival wakes.
func (q *query) Ready(p *sim.Proc) bool {
	if !q.done {
		q.waiter = p
	}
	return q.done
}

// onFire is q's next event (event context: at the VPE's PE until the answer
// leaves, then at the kernel).
func (q *query) onFire() {
	switch q.stage {
	case stageAtService:
		q.v.svc.queue.Push(svcItem{q: q})
	case stageAtVPE:
		// The VPE's exchange handler answers after its decision time.
		q.accept = q.v.answerExchange(q.xq).Accept
		q.stage = stageDecided
		q.k.sys.Eng.Schedule(q.k.sys.Cost.VPEAccept, q.fire)
	case stageDecided:
		q.answer(vpeAnswerBytes)
	case stageAnswered:
		q.done = true
		if w := q.waiter; w != nil {
			q.waiter = nil
			w.Wake()
		}
	}
}

// answer sends q back to the asking kernel.
func (q *query) answer(bytes int) {
	q.stage = stageAnswered
	q.k.sys.Net.Send(q.v.PE, q.k.pe, bytes, q.fire)
}

// askVPE queries a local VPE for consent to a capability exchange (paper
// Fig. 3 steps A.2/A.3). The kernel releases its CPU while the query
// travels to the user PE and back.
func (k *Kernel) askVPE(p *sim.Proc, v *VPE, xq ExchangeQuery) bool {
	q := k.newQuery(v)
	q.xq = xq
	q.ask(p, stageAtVPE, vpeQueryBytes)
	accept := q.accept
	q.release()
	return accept
}

// mintKey creates a fresh DDL key whose partition belongs to this kernel.
func (k *Kernel) mintKey(creatorPE, creatorVPE int, typ ddl.Type) ddl.Key {
	return k.gen.Next(creatorPE, creatorVPE, typ)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
