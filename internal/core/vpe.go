package core

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// User-PE DTU endpoint layout.
const (
	vpeSyscallSendEP  = 0 // send syscalls to the group kernel
	vpeSyscallReplyEP = 1 // receive syscall replies
	vpeServiceReplyEP = 3 // receive service IPC replies

	// vpeFirstSessionEP..vpeLastSessionEP are send endpoints to services,
	// one per session.
	vpeFirstSessionEP = 4
	vpeLastSessionEP  = 9
	// vpeFirstMemEP..vpeLastMemEP are memory endpoints, activated from
	// memory capabilities.
	vpeFirstMemEP = 10
	vpeLastMemEP  = 15
)

// Program is the code a VPE executes, running as a cooperative proc.
type Program func(v *VPE, p *sim.Proc)

// VPE is a virtual PE: the unit of execution scheduled on a user PE,
// comparable to a single-threaded process (paper §2.2). Each VPE has its
// own capability space managed by its group kernel, and issues system calls
// as messages to that kernel — at most one at a time.
type VPE struct {
	ID   int
	Name string
	PE   int

	sys    *System
	kernel *Kernel
	dtu    *dtu.DTU
	prog   Program
	proc   *sim.Proc

	// OnExchange, if set, decides on incoming exchange requests; the
	// default accepts everything. It runs as the VPE's exchange handler.
	OnExchange func(ExchangeQuery) ExchangeAnswer

	// svc is non-nil when this VPE registered as a service.
	svc *localService

	// activeEPs maps activated endpoint indices to the backing selector,
	// so revocation can invalidate them.
	activeEPs map[int]cap.Selector

	// nextSessEP allocates send endpoints for sessions.
	nextSessEP int

	// sysReq and sysRep are the payloads of the one syscall the VPE can have
	// outstanding (see syscall).
	sysReq sysRequest
	sysRep sysReply

	// The in-flight record of the VPE's outstanding obtain or session-open
	// (it has one syscall at a time): obtaining from the moment the child's
	// identity (PE, ID, obtainObj) is agreed — the request leaves — until the
	// owner's answer is consumed. The owner links the pre-agreed child key
	// before its reply arrives, so a revocation can race the reply: the
	// revoke request for the not-yet-inserted key finds nothing here and is
	// confirmed as already revoked, after which the owner deletes the parent.
	// obtainRevoked is the tombstone that makes the late (or dedup-replayed)
	// reply discard the child instead of inserting an orphan (revokeUnseen).
	obtainObj     uint64
	obtaining     bool
	obtainRevoked bool

	exited  bool
	started bool
	capOps  uint64

	// obj is the object of the VPE's root capability (createVPE), set once
	// before the capability is made and never again (cap.Object).
	obj cap.VPEObject
}

// Kernel returns the kernel managing this VPE.
func (v *VPE) Kernel() *Kernel { return v.kernel }

// CapOps returns the number of capability operations (obtain, delegate,
// revoke, session create) this VPE has issued — the paper's Table 4 metric.
func (v *VPE) CapOps() uint64 { return v.capOps }

// start launches the VPE's program (called by the kernel after setup).
func (v *VPE) start() {
	if v.started || v.prog == nil {
		return
	}
	v.started = true
	v.proc = v.sys.Eng.SpawnLazy(v.sys.vpeProcNameFn, v.ID, v.sys.vpeRunFn)
}

// answerExchange runs the VPE's exchange handler (event context; the
// decision cost is charged by the kernel's query round trip).
func (v *VPE) answerExchange(q ExchangeQuery) ExchangeAnswer {
	if v.exited {
		return ExchangeAnswer{Accept: false}
	}
	if v.OnExchange != nil {
		return v.OnExchange(q)
	}
	return ExchangeAnswer{Accept: true}
}

// Kill marks the VPE as exited immediately, without running cleanup — the
// fault model for the paper's orphaned/invalid interference cases. The
// kernel discovers the death when it next interacts with the VPE.
func (v *VPE) Kill() { v.exited = true }

// syscall sends a request message to the group kernel and blocks until the
// reply arrives, like the paper's message-based system calls. Each VPE has
// a single syscall credit, enforcing one outstanding call — which is why
// the request and the reply can live in the VPE's own buffers: the kernel
// reads sysReq and writes sysRep only between the send and the reply.
func (v *VPE) syscall(p *sim.Proc, req sysRequest) sysReply {
	p.Settle() // a service handler issuing a syscall owes its request cost
	req.VPE = v.ID
	v.sysReq = req
	if err := v.dtu.Send(vpeSyscallSendEP, &v.sysReq, syscallMsgBytes, vpeSyscallReplyEP, 0); err != nil {
		panic(fmt.Sprintf("core: syscall send failed: %v", err))
	}
	m := v.dtu.Wait(p, vpeSyscallReplyEP)
	rep := *m.Payload.(*sysReply)
	v.dtu.Ack(m)
	return rep
}

// dataCyclesPerByte models the time to move one byte of data through a
// memory endpoint against a non-contended memory controller (the paper's
// §5.3.1 methodology: data accesses are accounted as compute time rather
// than simulated through a memory hierarchy): ~16 GB/s per PE at 2 GHz.
const dataCyclesPerByte = 0.125

// Transfer models moving bytes of bulk data, as time only: through the
// VPE's memory endpoint, then over the PE group's shared mesh region, where
// transfers of VPEs in the same group serialize.
func (v *VPE) Transfer(p *sim.Proc, bytes uint64) {
	p.Sleep(sim.Duration(float64(bytes) * dataCyclesPerByte))
	if d := sim.Duration(float64(bytes) * v.sys.Cost.LinkCyclesPerByte); d > 0 {
		v.kernel.link.Acquire(p)
		p.Sleep(d)
		v.kernel.link.Release()
	}
}

// Access moves size bytes at offset off through memory endpoint ep if the DTU
// grants need there (dtu.CheckMem), in Transfer's time. What the proc owes
// elapses before the check: revocations rewrite endpoints from other procs.
func (v *VPE) Access(p *sim.Proc, ep int, off, size uint64, need dtu.Perm) error {
	p.Settle()
	if err := v.dtu.CheckMem(ep, off, size, need); err != nil {
		return err
	}
	v.Transfer(p, size)
	return nil
}

// AllocMem allocates size bytes of global memory with the given permissions
// and returns a root memory capability.
func (v *VPE) AllocMem(p *sim.Proc, size uint64, perm dtu.Perm) (cap.Selector, error) {
	rep := v.syscall(p, sysRequest{Kind: sysAllocMem, Size: size, Perm: perm})
	return rep.Sel, rep.Err.Err()
}

// DeriveMem creates a child memory capability covering [off, off+size) of
// the memory capability at sel, with possibly reduced permissions.
func (v *VPE) DeriveMem(p *sim.Proc, sel cap.Selector, off, size uint64, perm dtu.Perm) (cap.Selector, error) {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysDeriveMem, Sel: sel, Off: off, Size: size, Perm: perm})
	return rep.Sel, rep.Err.Err()
}

// ObtainFrom obtains the capability at (srcVPE, srcSel) into this VPE's
// capability space. The owner VPE is asked for consent; the kernels run the
// distributed obtain protocol if the owner lives in another PE group.
func (v *VPE) ObtainFrom(p *sim.Proc, srcVPE int, srcSel cap.Selector) (cap.Selector, error) {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysObtainFrom, TargetVPE: srcVPE, TargetSel: srcSel})
	return rep.Sel, rep.Err.Err()
}

// DelegateTo delegates this VPE's capability at sel to dstVPE. The receiver
// is asked for consent; across groups the two-way handshake protocol runs.
func (v *VPE) DelegateTo(p *sim.Proc, dstVPE int, sel cap.Selector) (cap.Selector, error) {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysDelegateTo, TargetVPE: dstVPE, Sel: sel})
	return rep.Sel, rep.Err.Err()
}

// Revoke recursively revokes the capability subtree rooted at sel.
func (v *VPE) Revoke(p *sim.Proc, sel cap.Selector) error {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysRevoke, Sel: sel})
	return rep.Err.Err()
}

// CreateRgate creates a receive gate on this VPE's endpoint ep and returns
// its capability. Other VPEs can obtain send capabilities from it.
func (v *VPE) CreateRgate(p *sim.Proc, ep, slots int) (cap.Selector, error) {
	rep := v.syscall(p, sysRequest{Kind: sysCreateRgate, EP: ep, Size: uint64(slots)})
	return rep.Sel, rep.Err.Err()
}

// Activate configures endpoint ep from the capability at sel (memory or
// send capability), enabling direct DTU access without further kernel
// involvement.
func (v *VPE) Activate(p *sim.Proc, sel cap.Selector, ep int) error {
	rep := v.syscall(p, sysRequest{Kind: sysActivate, Sel: sel, EP: ep})
	return rep.Err.Err()
}

// Exit revokes all of the VPE's capabilities and marks it exited.
func (v *VPE) Exit(p *sim.Proc) {
	v.syscall(p, sysRequest{Kind: sysExit})
	v.exited = true
}

// Noop issues a no-op syscall (used to measure the bare syscall path).
func (v *VPE) Noop(p *sim.Proc) {
	v.syscall(p, sysRequest{Kind: sysNoop})
}

// DTU exposes the VPE's DTU: its endpoints and the checks behind Access.
func (v *VPE) DTU() *dtu.DTU { return v.dtu }
