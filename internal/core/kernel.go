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
// Every field is an unsigned integer that System.TotalStats sums across the
// kernels; a new counter is one new field.
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

	cpu  sim.Semaphore // the kernel PE's single core
	link sim.Semaphore // the group's shared mesh-region bandwidth
	// holder is the wait record of the thread that took the CPU last — while
	// a thread runs with the CPU held, its own (kthread.go).
	holder *kthread

	// All kernel work is a job on a pool thread. completionPool (revoke
	// replies) and xmitPool (window-timer flushes) have one thread each.
	syscallPool    pool
	ikcPool        pool
	revokePool     pool
	completionPool pool
	xmitPool       pool

	// batching is the unified IKC transport's policy (transport.go).
	batching IKCBatching

	// reliable says the kernel runs the reliable IKC layer
	// (reliability.go): exactly when the machine has a fault plan.
	reliable bool

	// incarnation numbers this kernel's lifetimes, starting at 1 and
	// bumped at every scripted recovery (rejoin.go). It stamps each request
	// when it first goes on the wire, so peers can tell a live request from
	// a dead incarnation's retransmit.
	incarnation uint32

	// orphanFixes records cross-kernel tree-maintenance operations that
	// failed with ErrPeerDead, replayed when the peer rejoins (rejoin.go).
	orphanFixes []orphanFix

	// peers holds the IKC state toward each other kernel, indexed by its
	// id; nil until the two talk (peer). pending maps the sequence number of
	// every request still awaiting its reply to the call's continuation and,
	// in reliable mode once it is on the wire, its transmission (awaited),
	// keyed by the sequence number, which starts at 1 (nextSeq).
	peers   []*peer
	pending ddl.KeyMap[awaited]
	seq     uint64

	// queries recycles the VPE/service query records (query).
	queries sim.Recycler[query]

	// pendingDelegations holds the children the delegate two-way handshake
	// prepared that await the delegator's acknowledgement, by the child's key.
	pendingDelegations ddl.KeyMap[pendingChild]

	// revocations maps every marked capability to the record of the
	// revocation that marked it (paper Algorithm 1); revFree heads the list
	// of released records awaiting reuse (newRev), and revHeld counts the
	// records out.
	revocations ddl.KeyMap[*revState]
	revFree     *revState
	revHeld     int
	// walks are the mark walks' scratch no walk is using (takeWalk), walk1
	// their first storage.
	walks []walk
	walk1 [1]walk

	stats KernelStats
}

// newKernel boots kernel id of s in the record k, with peers as its (nil)
// peer table.
func newKernel(k *Kernel, s *System, id int, peers []*peer) {
	*k = Kernel{
		id:          id,
		pe:          id,
		incarnation: 1,
		sys:         s,
		dtu:         s.Fab.DTU(id),
		member:      s.member,
		cpu:         *sim.NewSemaphore(1),
		link:        *sim.NewSemaphore(1),
		batching:    s.cfg.IKCBatching,
		reliable:    s.cfg.Faults != nil,
		peers:       peers,
	}
	k.walks = k.walk1[:0]
	// Groups are contiguous runs of the user PEs: the group is a window of
	// the machine's list.
	lo := 0
	for lo < len(s.userPEs) && s.member.KernelOf(s.userPEs[lo]) != id {
		lo++
	}
	hi := lo
	for hi < len(s.userPEs) && s.member.KernelOf(s.userPEs[hi]) == id {
		hi++
	}
	k.group = s.userPEs[lo:hi:hi]
	newPool(&k.syscallPool, k, "sys", max(len(k.group), 1))
	newPool(&k.ikcPool, k, "ikc", k.ikcWindow())
	newPool(&k.revokePool, k, "rev", RevokeThreads)
	newPool(&k.completionPool, k, "cmp", 1)
	newPool(&k.xmitPool, k, "xmit", 1)
	// Configure the kernel DTU's syscall receive endpoints; messages are
	// dispatched to the syscall pool. Inter-kernel legs are ikcWires. The
	// handler is bound once for all of them.
	onMsg := k.onSyscallMsg
	for ep := kernelSyscallEP0; ep < kernelSyscallEP0+SyscallRecvEPs; ep++ {
		if err := k.dtu.ConfigureRecv(k.dtu, ep, dtu.DefaultSlots, onMsg); err != nil {
			panic(err)
		}
	}
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

// Stats returns a snapshot of the kernel's counters.
func (k *Kernel) Stats() KernelStats { return k.stats }

// Store exposes the mapping database for tests and diagnostics.
func (k *Kernel) Store() *cap.Store { return k.store }

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
// what timers and the fault layer write (the reliable state of the peer
// records, a VPE's exited flag). Such code follows an exec, or calls
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
	jobRequest                   // pick up and dispatch the inter-kernel request(s)
	jobRevokeDone                // account one completed child revocation
	jobFunc                      // run the function, which gives the CPU back itself: rejoin
	jobVPE                       // set the VPE up and start its program (setupVPE)
	jobFlush                     // flush one generation of a request queue (sendQueue.Fire)
)

// job is one unit of kernel-thread work: a kind and its subject, whose
// dynamic type the kind fixes — the syscall message (*dtu.Message), the
// direct request (*ikcRequest) or the envelope's wire (*ikcWire, until its
// pickup), the revocation (*revState), the function (jobBody), the VPE
// (*VPE), the request queue (*sendQueue) whose generation gen to flush.
// All of them are pointer-shaped, so queueing a job allocates nothing, and a
// job is three words, gen in the padding after kind: every thread's wait
// record holds one (kthread).
type job struct {
	kind jobKind
	gen  uint32
	subj any
}

// jobBody is a jobFunc's subject. It starts with the CPU held, like every
// job, and releases it itself (releaseCPU).
type jobBody = func(p *sim.Proc)

// pool is a lazily grown, bounded worker pool of kernel threads running
// jobs on cooperative procs.
type pool struct {
	k       *Kernel
	name    string
	max     int
	spawned int
	q       sim.Queue[job]
	// threads lists the spawned threads' wait records, newest first. The
	// records come from blocks of threadBlock, or of what is left of max if
	// that is less (newThread): a pool that needs one thread mostly needs
	// several (a group's VPEs boot at one instant), and a malloc per thread
	// would be the only one a thread costs outside sim.
	threads *kthread
	records sim.Blocks[kthread]
	taken   int // records handed out so far, at most max
	// threadName and work as func values, bound once, by the first spawn:
	// taking them per spawned thread would allocate two closures per
	// thread, and a pool that never spawns (most machines' ikc and rev
	// pools) binds nothing.
	nameFn func(idx int) string
	workFn func(p *sim.Proc)
}

// newPool sets up the pool in the record pl.
func newPool(pl *pool, k *Kernel, name string, max int) {
	*pl = pool{k: k, name: name, max: max}
}

// threadName formats the diagnostic name of the pool's idx-th thread.
func (pl *pool) threadName(idx int) string {
	return fmt.Sprintf("k%d/%s%d", pl.k.id, pl.name, idx)
}

// submit enqueues a job, spawning a worker if none is idle and the pool
// limit permits. If the pool is saturated the job waits in the queue — the
// kernel's defense against request floods (paper §4.2).
func (pl *pool) submit(j job) {
	s := pl.k.sys
	if pl.q.Waiters() == 0 && pl.spawned < pl.max {
		if pl.workFn == nil {
			pl.nameFn, pl.workFn = pl.threadName, pl.work
		}
		pl.spawned++
		// Every thread of the pool may park idle at once.
		pl.q.ReserveWaiters(&s.procs, pl.spawned, s.queueBlock())
		s.Eng.SpawnLazy(pl.nameFn, pl.spawned, pl.workFn)
	}
	pl.q.ReserveItems(&s.jobs, 1, s.queueBlock())
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
			j.subj.(jobBody)(p)
			t.stage = stageJob // the body gave the CPU back itself: no epilogue
			continue
		case jobVPE:
			k.setupVPE(p, j.subj.(*VPE))
			t.stage = stageJob // as jobFunc
			continue
		case jobSyscall:
			k.handleSyscall(p, j.subj.(*dtu.Message))
		case jobRequest:
			reqs = k.pickUp(p, t, reqs)
		case jobRevokeDone:
			k.revokeReplyArrived(p, j.subj.(*revState))
		case jobFlush:
			// The generation may have flushed inline while the job waited
			// for the CPU.
			if q := j.subj.(*sendQueue); !q.stale(j.gen) {
				k.flushLocked(p, q)
			}
		}
		t.stage = stageEpilogue
	}
}

// threadBlock is how many wait records a pool allocates at a time.
const threadBlock = 4

// newThread hands the calling thread its wait record, parked for a job.
func (pl *pool) newThread() *kthread {
	t := pl.records.New(min(threadBlock, pl.max-pl.taken))
	pl.taken++
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
	k.syscallPool.submit(job{kind: jobVPE, subj: v})
}

// setupVPE is createVPE's job, run by a syscall thread with the CPU held;
// it gives the CPU back itself.
func (k *Kernel) setupVPE(p *sim.Proc, v *VPE) {
	k.exec(p, k.sys.Cost.VPECreate)
	// Syscall channel: user EP 0 sends to one of the kernel's syscall
	// endpoints; one credit models the single outstanding syscall.
	sysEP := kernelSyscallEP0 + (v.PE % SyscallRecvEPs)
	must(v.dtu.ConfigureSend(k.dtu, vpeSyscallSendEP, k.pe, sysEP, 1, uint64(v.ID)))
	must(v.dtu.ConfigureRecv(k.dtu, vpeSyscallReplyEP, 2, nil))
	must(v.dtu.ConfigureRecv(k.dtu, vpeServiceReplyEP, 2, nil))
	v.dtu.Downgrade()
	// The VPE's root capability: control over itself. Its object lives
	// in the VPE's record.
	v.obj = cap.VPEObject{VPE: v.ID, PE: v.PE}
	vcap := &cap.Capability{
		Key:    k.gen.Next(v.PE, v.ID, ddl.TypeVPE),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &v.obj,
		Perm:   dtu.PermRW,
	}
	k.store.Insert(vcap)
	k.stats.CapsCreated++
	k.releaseCPU(p)
	v.start()
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
}

// queryBlock is how many query records a kernel allocates at a time: about
// as many as a kernel of a loaded machine ever has out at once.
const queryBlock = 2

// newQuery takes a released record (or makes one) for a question from k to
// v.
func (k *Kernel) newQuery(v *VPE) *query {
	q := k.queries.New(queryBlock)
	q.k, q.v = k, v
	return q
}

func (q *query) release() {
	*q = query{k: q.k}
	q.k.queries.Put(q)
}

// ask sends q to its VPE's PE and parks the calling kernel thread until the
// answer is back — a preemption point, like ikCall: the CPU is released
// while parked and re-acquired afterwards. The question leaves when the
// thread's time is up, so what it owes is settled first.
func (q *query) ask(p *sim.Proc, stage queryStage, bytes int) {
	k := q.k
	q.stage = stage
	p.Settle()
	k.sys.Net.Post(k.pe, q.v.PE, bytes, q)
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

// Fire is q's next event (event context: at the VPE's PE until the answer
// leaves, then at the kernel).
func (q *query) Fire() {
	switch q.stage {
	case stageAtService:
		q.v.svc.queue.Push(svcItem{q: q})
	case stageAtVPE:
		// The VPE's exchange handler answers after its decision time.
		q.accept = q.v.answerExchange(q.xq).Accept
		q.stage = stageDecided
		q.k.sys.Eng.Post(q.k.sys.Cost.VPEAccept, q)
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
	q.k.sys.Net.Post(q.v.PE, q.k.pe, bytes, q)
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
