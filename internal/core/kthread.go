package core

import (
	"fmt"

	"repro/internal/dtu"
	"repro/internal/sim"
)

// waitStage says what a kernel thread's wait record does when the engine
// next asks it (kthread.Ready).
type waitStage uint8

const (
	// Between jobs: the job's last charge has elapsed, so what it produced
	// leaves (the epilogue) and the CPU is released; then the thread takes
	// the next job off its pool's queue, then the CPU to start it on. A job
	// whose handler cannot block runs right there, in the record
	// (job.inline); any other is the body's to run.
	stageEpilogue waitStage = iota
	stageJob
	stageJobCPU
	// At a preemption point: release the CPU, wait for inner (a reply, a
	// VPE's answer, an in-flight credit), take the CPU again.
	stageRelease
	stageInner
	stageCPU
)

// kthread is the wait record of one proc that runs kernel work — a pool
// thread, or the transport's transmit proc: everything the thread waits for
// between two stretches of work, as data. The thread parks on the record
// once (sim.Proc.ParkOn) and the engine walks the stages in the wake-up
// events themselves, doing in each what the thread's body did when it was
// switched in only to look and park again — send the reply, release the CPU,
// find the next job, queue for the CPU — in the same event and the same
// order; the body runs again when there is work to run and the CPU to run it
// on. A job allocates nothing: the records come with the pool (newThread),
// 144 bytes each, and hold the slot the thread's inter-kernel calls are
// answered in (ikCall).
//
// The record is also what the machine reports about the thread
// (System.CheckQuiescent): which job it holds and what it is parked on.
type kthread struct {
	// pl is the thread's pool. The transmit proc takes no jobs and never
	// reaches stageJob; its record borrows the inter-kernel pool to name its
	// kernel.
	pl    *pool
	next  *kthread // the pool's threads, newest first
	inner sim.Waiter
	// job is the job in hand, from stageJob's pop to the epilogue. A
	// request job's subject is gone once it is picked up (pickUp), and
	// kind and from, of its first request, stand for it.
	job   job
	stage waitStage
	kind  ikcKind
	from  int32
	reply replySlot
}

// replySlot is where the reply to a thread's inter-kernel call lands, as
// VPE.sysRep holds a syscall's: the call's continuation in Kernel.pending
// names the thread, and complete fills the slot and wakes the thread if it
// is parked on it already.
type replySlot struct {
	rep    ikcReply
	done   bool
	waiter *sim.Proc
}

func (r *replySlot) fill(rep *ikcReply) {
	r.rep, r.done = *rep, true
	if w := r.waiter; w != nil {
		r.waiter = nil
		w.Wake()
	}
}

// Ready implements sim.Waiter for the thread parked on the slot.
func (r *replySlot) Ready(p *sim.Proc) bool {
	if !r.done {
		r.waiter = p
	}
	return r.done
}

// take hands the reply over and empties the slot for the next call.
func (r *replySlot) take() ikcReply {
	rep := r.rep
	*r = replySlot{}
	return rep
}

// Ready implements sim.Waiter.
func (t *kthread) Ready(p *sim.Proc) bool {
	k := t.pl.k
	for {
		switch t.stage {
		case stageEpilogue:
			switch j := &t.job; j.kind {
			case jobSyscall:
				// The reply frees the syscall slot and returns the VPE's credit;
				// handleSyscall left the payload in the VPE's buffer.
				m := j.subj.(*dtu.Message)
				k.dtu.Reply(m, &k.sys.vpes[m.Payload.(*sysRequest).VPE].sysRep, syscallRepBytes)
			case jobRequest:
				// Dispatch barrier of the reply sink (see flushReplies): a
				// reply produced by this dispatch leaves now instead of waiting
				// on an idle window timer. No-op for unbatched families.
				k.flushReplies(int(t.from), classOf(t.kind))
			}
			k.cpu.Release()
			t.stage = stageJob
		case stageJob:
			if !t.pl.q.Ready(p) {
				return false
			}
			t.job, _ = t.pl.q.TryPop()
			t.stage = stageJobCPU
		case stageJobCPU:
			if !k.cpu.Ready(p) {
				return false
			}
			k.holder = t
			if !t.job.inline() {
				return true
			}
			// The handler runs here, in the event and at the point where
			// the body, switched in, would have run it. It ends owing the
			// reply's charge at least, so the thread stays parked while what
			// it owes elapses (sim.Waiter), and is asked again for the
			// epilogue.
			k.handleSyscall(p, t.job.subj.(*dtu.Message))
			t.stage = stageEpilogue
			return false
		case stageRelease:
			k.cpu.Release()
			t.stage = stageInner
		case stageInner:
			if !t.inner.Ready(p) {
				return false
			}
			t.inner = nil
			t.stage = stageCPU
		case stageCPU:
			if !k.cpu.Ready(p) {
				return false
			}
			k.holder = t
			return true
		}
	}
}

// inline reports whether the job's handler runs in the thread's wait record
// (stageJobCPU) instead of the thread's body: a syscall whose handler
// neither settles nor parks on any path — it charges its terms, the last of
// them the reply, and returns. Such a handler needs no stack of its own, and
// running it engine side saves the switch into the thread. DESIGN.md "Waits
// as data" walks every path of the two. The transmit proc's record holds the
// zero job, which carries no syscall message and never matches.
func (j *job) inline() bool {
	m, ok := j.subj.(*dtu.Message)
	if !ok || j.kind != jobSyscall {
		return false
	}
	switch m.Payload.(*sysRequest).Kind {
	case sysDeriveMem, sysNoop:
		return true
	}
	return false
}

// acquireCPU / releaseCPU bracket the kernel work a job's own CPU stage does
// not cover: sysActivate's stretch after its round trip, the transmit proc's
// flushes. t is the calling proc's record. Release settles what the proc
// owes first: the next holder must not start before this one's time is up.
func (k *Kernel) acquireCPU(p *sim.Proc, t *kthread) {
	t.stage = stageCPU
	p.ParkOn(t)
}

func (k *Kernel) releaseCPU(p *sim.Proc) {
	p.Settle()
	k.cpu.Release()
}

// pause is a preemption point (paper §4.2) of the thread holding the CPU:
// once what it owes has elapsed the CPU is released, the thread waits for
// inner, and takes the CPU again — one park, and one switch back into the
// thread when it has both.
func (k *Kernel) pause(p *sim.Proc, inner sim.Waiter) {
	t := k.holder
	t.inner, t.stage = inner, stageRelease
	p.ParkOn(t)
}

// describe says, for the quiescence audit, which job the thread holds and
// what it is parked on; "" for a thread parked for its next job.
func (t *kthread) describe() string {
	var wait string
	switch t.stage {
	case stageJob:
		return ""
	case stageInner:
		wait = t.pl.k.describeWait(t.inner)
	case stageJobCPU:
		wait = "await-cpu to start"
	case stageCPU:
		wait = "await-cpu"
	default:
		wait = fmt.Sprintf("stage %d", t.stage)
	}
	var what string
	switch j := &t.job; {
	case t == t.pl.k.xmit:
		what = "envelope flush"
	case j.kind == jobSyscall:
		what = "syscall " + j.subj.(*dtu.Message).Payload.(*sysRequest).Kind.String()
	case j.kind == jobRequest:
		switch subj := j.subj.(type) {
		case *ikcWire:
			what = "request envelope"
		case *ikcRequest:
			what = fmt.Sprintf("request %v from k%d", subj.Kind, subj.From)
		default: // picked up
			what = fmt.Sprintf("request %v from k%d", t.kind, t.from)
		}
	case j.kind == jobRevokeDone:
		what = "revoke completion"
	default:
		what = "boot or rejoin"
	}
	return what + ", " + wait
}

// describeWait names what a thread waits for at a preemption point.
func (k *Kernel) describeWait(w sim.Waiter) string {
	switch w := w.(type) {
	case *sim.Semaphore:
		for dst, pr := range k.peers {
			if pr != nil && &pr.credits == w {
				return fmt.Sprintf("await-credit k%d→k%d", k.id, dst)
			}
		}
	case *query:
		return fmt.Sprintf("await-answer of VPE %d", w.v.ID)
	case *replySlot:
		return "await-reply"
	case *revState:
		return "await-revocation"
	}
	return fmt.Sprintf("await %T", w)
}
