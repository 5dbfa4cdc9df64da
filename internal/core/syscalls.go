package core

import (
	"slices"

	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// handleSyscall runs on a syscall-pool thread with the CPU held. It decodes
// the request, executes the handler and leaves the reply in the VPE's
// buffer; the thread's epilogue sends it through the DTU (freeing the
// syscall slot and returning the VPE's credit). req points into the issuing
// VPE and is only valid until the reply leaves: a handler that needs it
// longer copies it.
func (k *Kernel) handleSyscall(p *sim.Proc, m *dtu.Message) {
	req := m.Payload.(*sysRequest)
	k.stats.Syscalls++
	switch req.Kind {
	case sysAllocMem, sysCreateRgate, sysActivate, sysRegisterService, sysExit:
		// These start on state the CPU does not guard — the DRAM allocator
		// and the service directory are shared between kernels, an endpoint
		// or the exited flag is the VPE's to see — so the dispatch time
		// passes first.
		k.exec(p, k.sys.Cost.SyscallDispatch)
	default:
		// The capability syscalls start in the capability store: dispatch is
		// the first charge of a CPU-held stretch.
		k.charge(p, k.sys.Cost.SyscallDispatch)
	}

	var rep sysReply
	switch req.Kind {
	case sysAllocMem:
		rep = k.sysAllocMem(p, req)
	case sysDeriveMem:
		rep = k.sysDeriveMem(p, req)
	case sysObtainFrom:
		rep = k.sysObtainFrom(p, req)
	case sysDelegateTo:
		rep = k.sysDelegateTo(p, req)
	case sysRevoke:
		rep = k.sysRevoke(p, req)
	case sysCreateRgate:
		rep = k.sysCreateRgate(p, req)
	case sysCreateSession:
		rep = k.sysCreateSession(p, req)
	case sysObtainSess:
		rep = k.sysObtainSess(p, req)
	case sysDelegateSess:
		rep = k.sysDelegateSess(p, req)
	case sysActivate:
		rep = k.sysActivate(p, req)
	case sysRegisterService:
		rep = k.sysRegisterService(p, req)
	case sysExit:
		rep = k.sysExit(p, req)
	case sysNoop:
	default:
		rep = sysReply{Err: ErrBadArgs}
	}

	// The reply is the last term of the syscall, and the thread's park
	// settles it: the message leaves, engine side, once everything owed has
	// elapsed (kthread.Ready, the epilogue). Its payload can be written
	// already — sysRep is the kernel's to write until the reply arrives, and
	// the VPE reads it only then.
	k.charge(p, k.sys.Cost.SyscallReply)
	k.sys.vpes[req.VPE].sysRep = rep
}

// insertCap stores a freshly created capability, charging creation and
// linking costs (owed: the store is the CPU holder's).
func (k *Kernel) insertCap(p *sim.Proc, c *cap.Capability) {
	k.charge(p, k.sys.Cost.CapCreate+k.sys.Cost.CapLink)
	k.store.Insert(c)
	k.stats.CapsCreated++
}

// lookupSel finds a VPE's capability and charges lookup plus DDL-decoding
// cost (SemperOS references capabilities by DDL key rather than pointer;
// the decode is the overhead measured in Table 3). The cost is owed.
func (k *Kernel) lookupSel(p *sim.Proc, vpe int, sel cap.Selector) *cap.Capability {
	k.charge(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	return k.store.LookupSel(vpe, sel)
}

func (k *Kernel) sysAllocMem(p *sim.Proc, req *sysRequest) sysReply {
	pe, off, err := k.sys.allocDRAM(req.Size)
	if err != nil {
		return sysReply{Err: ErrOutOfMem}
	}
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	c := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeMem),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: k.sys.newMemObject(cap.MemObject{PE: pe, Off: off, Size: req.Size, Perm: req.Perm}),
		Perm:   req.Perm,
	}
	k.insertCap(p, c)
	return sysReply{Sel: c.Sel}
}

func (k *Kernel) sysDeriveMem(p *sim.Proc, req *sysRequest) sysReply {
	parent := k.lookupSel(p, req.VPE, req.Sel)
	if parent == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	if parent.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	mo, ok := parent.Object.(*cap.MemObject)
	if !ok {
		return sysReply{Err: ErrBadArgs}
	}
	if req.Off+req.Size > mo.Size {
		return sysReply{Err: ErrBadArgs}
	}
	if req.Perm&^parent.Perm != 0 {
		return sysReply{Err: ErrDenied}
	}
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	k.stats.Obtains++ // a derive is a local exchange with oneself
	child := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeMem),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: k.sys.newMemObject(cap.MemObject{PE: mo.PE, Off: mo.Off + req.Off, Size: req.Size, Perm: req.Perm}),
		Perm:   req.Perm,
		Parent: parent.Key,
	}
	parent.AddChild(child.Key)
	k.charge(p, k.sys.Cost.CapLink)
	k.insertCap(p, child)
	return sysReply{Sel: child.Sel}
}

func (k *Kernel) sysCreateRgate(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	slots := int(req.Size)
	if slots <= 0 || slots > dtu.DefaultSlots {
		slots = dtu.DefaultSlots
	}
	k.exec(p, k.sys.Cost.EPConfig)
	if err := v.dtu.ConfigureRecv(k.dtu, req.EP, slots, nil); err != nil {
		return sysReply{Err: ErrBadArgs}
	}
	c := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeRecv),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &cap.RecvObject{PE: v.PE, EP: req.EP, Slots: slots},
		Perm:   dtu.PermRW,
	}
	k.insertCap(p, c)
	return sysReply{Sel: c.Sel}
}

func (k *Kernel) sysActivate(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	c := k.lookupSel(p, req.VPE, req.Sel)
	if c == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	if c.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	k.exec(p, k.sys.Cost.EPConfig)
	// Capture the capability's payload before the round trip below releases
	// the CPU: the DTU is configured from the state observed at lookup time,
	// and the slab slot may be recycled while this thread is parked.
	object, perm := c.Object, c.Perm
	// Configuring a remote DTU costs a NoC round trip.
	rt := k.sys.Net.Latency(k.pe, v.PE, 32) + k.sys.Net.Latency(v.PE, k.pe, 16)
	t := k.holder
	k.releaseCPU(p)
	p.Sleep(rt)
	t.stage = stageCPU
	p.ParkOn(t)
	switch obj := object.(type) {
	case *cap.MemObject:
		must(v.dtu.ConfigureMem(k.dtu, req.EP, obj.PE, obj.Off, obj.Size, perm&obj.Perm))
	case *cap.SendObject:
		must(v.dtu.ConfigureSend(k.dtu, req.EP, obj.DstPE, obj.DstEP, obj.Credits, obj.Label))
	default:
		return sysReply{Err: ErrBadArgs}
	}
	if v.activeEPs == nil {
		v.activeEPs = make(map[int]cap.Selector)
	}
	v.activeEPs[req.EP] = req.Sel
	return sysReply{}
}

// sysExit revokes all capabilities of the exiting VPE. Roots owned by the
// VPE are revoked recursively; capabilities obtained from others are
// unlinked from their parents.
func (k *Kernel) sysExit(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	v.exited = true
	// One revocation at a time, re-listing after each: the store changes.
	// What is left marked is in another revocation already.
	for {
		caps := k.store.VPECaps(req.VPE)
		i := slices.IndexFunc(caps, func(c *cap.Capability) bool { return !c.Marked })
		if i < 0 {
			break
		}
		k.revokeAndWait(p, caps[i])
	}
	// The PE table is the whole machine's: the last revocation's time passes
	// before the PE reads as free.
	p.Settle()
	k.sys.peToVPE[v.PE] = nil
	return sysReply{}
}
