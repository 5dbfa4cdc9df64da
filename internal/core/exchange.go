package core

import (
	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Capability exchange (paper §4.3.2): obtain, delegate and session-open.
// Each half of the protocol is written once here and the variants are
// compositions of the halves — direct or through a session (the service is
// the consenting party), group-internal (both halves run on this kernel, no
// inter-kernel call in between) or group-spanning. DESIGN.md "The exchange
// protocol, once" tabulates who consents, who mints the child's identity,
// where the preemption points are and which check answers which
// interference case of the paper's Table 2; the comments below name the
// case where the check stands.

// deriveObject produces the kernel object for a child capability derived
// from parent's object. Deriving from a receive gate yields a send
// capability to it (connection establishment, paper Fig. 3); everything
// else is shared by reference.
func deriveObject(obj cap.Object) cap.Object {
	switch o := obj.(type) {
	case *cap.RecvObject:
		return &cap.SendObject{DstPE: o.PE, DstEP: o.EP, Credits: 1}
	default:
		return obj
	}
}

// kernelOfVPE resolves the kernel managing a VPE, charging a DDL decode
// (owed). The VPE table only grows, and an id is known to a caller only once
// its entry exists, so reading it ahead of the decode time reads the same.
func (k *Kernel) kernelOfVPE(p *sim.Proc, id int) (*Kernel, Errno) {
	k.charge(p, k.sys.Cost.DDLDecode)
	if id < 0 || id >= len(k.sys.vpes) {
		return nil, ErrVPEGone
	}
	return k.sys.vpes[id].kernel, OK
}

// childCap puts together the capability an exchange creates: owner's, under
// parent, with the selector the caller allocated. The value is free-standing
// — insertCap copies it into the store, so it stays on the caller's stack.
func childCap(key ddl.Key, owner int, sel cap.Selector, obj cap.Object, perm dtu.Perm, parent ddl.Key) *cap.Capability {
	return &cap.Capability{Key: key, Owner: owner, Sel: sel, Object: obj, Perm: perm, Parent: parent}
}

// serviceOf resolves a service capability's key to the VPE serving it, nil
// if the service is gone or going. The caller has settled (exited is not the
// CPU holder's flag) and paid for the lookup: a requester's kernel when it
// resolved the session, a handler with the remote head of grant/askReceiver.
func (k *Kernel) serviceOf(key ddl.Key) *VPE {
	svcCap := k.store.Lookup(key)
	if svcCap == nil || svcCap.Marked {
		return nil
	}
	sv := k.vpeOf(svcCap.Object.(*cap.ServiceObject).VPE)
	if sv == nil || sv.exited || sv.svc == nil {
		return nil
	}
	return sv
}

// --- obtain and session-open: the child is created at the requester -------

func (k *Kernel) sysObtainFrom(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	owner, errno := k.kernelOfVPE(p, req.TargetVPE)
	if errno != OK {
		return sysReply{Err: errno}
	}
	return k.obtain(p, v, owner.id, ikcRequest{Kind: ikcObtain, VPE: req.TargetVPE, Sel: req.TargetSel})
}

func (k *Kernel) sysObtainSess(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	sess := k.lookupSel(p, req.VPE, req.Sel)
	if sess == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	if sess.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	so, ok := sess.Object.(*cap.SessionObject)
	if !ok {
		return sysReply{Err: ErrBadArgs}
	}
	k.exec(p, k.sys.Cost.DDLDecode)
	return k.obtain(p, v, k.member.KernelOfKey(sess.Parent),
		ikcRequest{Kind: ikcObtainSess, Key: sess.Parent, Ident: so.Ident, Args: req.Args})
}

// obtain is the requester half of ikcObtain, ikcObtainSess and ikcSession:
// agree the child's identity, register it as in flight, put the question to
// the owner's kernel — grant, over an inter-kernel call or in place when the
// owner is this kernel — and create the child from the answer. req travels by
// value: the group-internal path reads it in place, and a request that leaves
// the kernel is copied into a recycled record (ikCall).
func (k *Kernel) obtain(p *sim.Proc, v *VPE, owner int, req ikcRequest) sysReply {
	objID := k.gen.NextID(v.PE, v.ID)
	req.ChildPE, req.ChildVPE, req.ChildObj = v.PE, v.ID, objID
	// Register before asking: the owner cannot link (and a revocation cannot
	// walk to) the child key before it has seen the request. A VPE has one
	// syscall outstanding, so the record is the VPE's (revokeUnseen).
	v.obtaining, v.obtainObj, v.obtainRevoked = true, objID, false
	var rep ikcReply
	if owner == k.id {
		// Both capability spaces are this kernel's: overlapping exchanges
		// serialize here ("Serialized").
		rep = k.grant(p, &req, false)
	} else {
		k.charge(p, k.sys.Cost.IKCMarshal)
		rep = k.ikCall(p, owner, req)
	}
	v.obtaining = false
	if rep.Err != OK {
		return sysReply{Err: rep.Err}
	}
	if v.obtainRevoked {
		// A revocation consumed the child key while the reply was in flight:
		// this kernel already confirmed the key as gone and the owner deleted
		// the parent subtree. Inserting now would leak an unreachable orphan.
		return sysReply{Err: ErrInRevocation}
	}
	childKey := ddl.NewKey(v.PE, v.ID, rep.Object.ObjType(), objID)
	if v.exited {
		// "Orphaned": the owner linked a child that will never exist here; a
		// notification removes the link (paper §4.3.2, case 1). Across kernels
		// only — in place, grant saw the requester die and linked nothing.
		k.stats.Orphans++
		k.notifyUnlink(p, owner, rep.Key, childKey)
		return sysReply{Err: ErrVPEGone}
	}
	child := childCap(childKey, v.ID, k.store.AllocSel(v.ID), rep.Object, rep.Perm, rep.Key)
	k.insertCap(p, child)
	if req.Kind == ikcSession {
		k.stats.Sessions++
	} else {
		k.stats.Obtains++
	}
	return sysReply{Sel: child.Sel, Args: rep.Args}
}

// grant is the owner half of the same three: validate what is asked for, ask
// the consenting party — the source's owner (askVPE) or, through a session,
// the service, which names the source (queryService) — re-validate after
// that preemption point, and link the pre-agreed child key under the source.
// remote says the requester is another kernel's: the answer is then
// marshalled into a reply (IKCMarshal rides the link term), and a service
// capability named by key is looked up first — the lookup a requester's own
// kernel paid when it resolved the session.
func (k *Kernel) grant(p *sim.Proc, req *ikcRequest, remote bool) ikcReply {
	var src *cap.Capability
	var sv *VPE
	var res SvcResult
	if req.Kind == ikcObtain {
		src = k.lookupSel(p, req.VPE, req.Sel)
		if src == nil {
			return ikcReply{Err: ErrNoSuchCap}
		}
		if src.Marked {
			// "Pointless": a capability in revocation is not exchanged.
			return ikcReply{Err: ErrInRevocation}
		}
		srcV := k.vpeOf(req.VPE)
		if k.gone(p, srcV) {
			return ikcReply{Err: ErrVPEGone}
		}
		if !k.askVPE(p, srcV, ExchangeQuery{Obtain: true, PeerVPE: req.ChildVPE, Sel: req.Sel}) {
			return ikcReply{Err: ErrDenied}
		}
	} else {
		if remote {
			k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
		}
		if sv = k.serviceOf(req.Key); sv == nil {
			return ikcReply{Err: ErrNoService}
		}
		ev := svcEvent{kind: SvcObtain, ident: req.Ident, args: req.Args}
		if req.Kind == ikcSession {
			ev = svcEvent{kind: SvcOpen, client: req.ChildVPE, args: req.Args}
		}
		if res = k.queryService(p, sv, ev); res.Errno != OK {
			return ikcReply{Err: res.Errno}
		}
	}
	// The consent was a preemption point (nothing is owed here). A requester
	// of this group may have been killed meanwhile; one of another group is
	// its own kernel's to check, after the reply ("Orphaned").
	if rv := k.vpeOf(req.ChildVPE); rv != nil && rv.exited {
		return ikcReply{Err: ErrVPEGone}
	}
	// A requester whose kernel recovered meanwhile has failed the call: a
	// child linked for it now would be one nobody inserts.
	if remote && k.outlived(req) {
		return ikcReply{Err: ErrPeerDead}
	}
	// And the source may have been revoked, its slot recycled.
	var obj cap.Object
	switch req.Kind {
	case ikcObtain:
		if src != k.store.LookupSel(req.VPE, req.Sel) || src.Marked {
			return ikcReply{Err: ErrInRevocation}
		}
	case ikcObtainSess:
		if src = k.lookupSel(p, sv.ID, res.SrcSel); src == nil {
			return ikcReply{Err: ErrNoSuchCap}
		}
		if src.Marked {
			return ikcReply{Err: ErrInRevocation}
		}
	case ikcSession:
		// A session is a child of the service capability itself.
		if src = k.store.Lookup(req.Key); src == nil || src.Marked {
			return ikcReply{Err: ErrNoService}
		}
		obj = k.sys.newSessionObject(cap.SessionObject{Service: src.Object.(*cap.ServiceObject).Name, Ident: res.Ident})
	}
	if obj == nil {
		obj = deriveObject(src.Object)
	}
	src.AddChild(ddl.NewKey(req.ChildPE, req.ChildVPE, obj.ObjType(), req.ChildObj))
	link := k.sys.Cost.CapLink
	if remote {
		link += k.sys.Cost.IKCMarshal
	}
	k.charge(p, link)
	return ikcReply{Key: src.Key, Object: obj, Perm: src.Perm, Args: res.Reply}
}

// handleUnlinkChild removes an orphaned child link (notification; no
// reply).
func (k *Kernel) handleUnlinkChild(p *sim.Proc, req *ikcRequest) {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	parent := k.store.Lookup(req.Key)
	if parent == nil {
		return // parent revoked meanwhile; nothing to clean
	}
	parent.RemoveChild(req.Child)
	k.exec(p, k.sys.Cost.CapLink)
	k.stats.Orphans++
}

// --- delegate: the child is created at the receiver ------------------------

func (k *Kernel) sysDelegateTo(p *sim.Proc, req *sysRequest) sysReply {
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
	dst, errno := k.kernelOfVPE(p, req.TargetVPE)
	if errno != OK {
		return sysReply{Err: errno}
	}
	return k.delegate(p, v, dst.id, ikcRequest{
		Kind: ikcDelegate, Key: c.Key, VPE: v.ID, ChildVPE: req.TargetVPE,
		Object: deriveObject(c.Object), Perm: c.Perm,
	})
}

// sysDelegateSess pushes the client's capability at req.Sel into the
// session (req.TargetSel), e.g. granting a service access to client memory.
func (k *Kernel) sysDelegateSess(p *sim.Proc, req *sysRequest) sysReply {
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
	sess := k.lookupSel(p, req.VPE, req.TargetSel)
	if sess == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	if sess.Marked {
		return sysReply{Err: ErrInRevocation}
	}
	so, ok := sess.Object.(*cap.SessionObject)
	if !ok {
		return sysReply{Err: ErrBadArgs}
	}
	k.exec(p, k.sys.Cost.DDLDecode)
	return k.delegate(p, v, k.member.KernelOfKey(sess.Parent), ikcRequest{
		Kind: ikcDelegateSess, Key: c.Key, VPE: v.ID, Child: sess.Parent, Ident: so.Ident,
		Object: deriveObject(c.Object), Perm: c.Perm, Args: req.Args,
	})
}

// delegate is the delegator's side of ikcDelegate and ikcDelegateSess; req
// names the delegated capability by key (every step below is behind a
// preemption point, and the store recycles slots) and travels by value, like
// obtain's. Within one group the kernel owns both capability spaces and
// links and inserts in one stretch. Across groups the two-way handshake runs
// (paper §4.3.2, case 2), so that a capability never becomes usable at the
// receiver while its parent link does not exist:
//  1. the receiver's kernel prepares, but does not insert, the child
//     (prepareDelegate);
//  2. this kernel re-validates the parent and links the child under it;
//  3. the acknowledgement lets the receiver's kernel insert
//     (handleDelegateAck).
func (k *Kernel) delegate(p *sim.Proc, v *VPE, dst int, req ikcRequest) sysReply {
	if dst == k.id {
		dstV, args, errno := k.askReceiver(p, &req, false)
		if errno != OK {
			return sysReply{Err: errno}
		}
		childKey := k.mintKey(dstV.PE, dstV.ID, req.Object.ObjType())
		if errno := k.linkDelegated(p, v, req.Key, childKey); errno != OK {
			return sysReply{Err: errno}
		}
		child := childCap(childKey, dstV.ID, k.store.AllocSel(dstV.ID), req.Object, req.Perm, req.Key)
		k.insertCap(p, child)
		k.stats.Delegates++
		return sysReply{Sel: child.Sel, Args: args}
	}
	k.charge(p, k.sys.Cost.IKCMarshal)
	rep := k.ikCall(p, dst, req)
	if rep.Err != OK {
		return sysReply{Err: rep.Err}
	}
	childKey := rep.Key
	k.exec(p, k.sys.Cost.CapLookup)
	if errno := k.linkDelegated(p, v, req.Key, childKey); errno != OK {
		// "Invalid": the parent was revoked, or the delegator killed, during
		// step 1. The receiver discards what it prepared.
		k.ikCall(p, dst, ikcRequest{Kind: ikcDelegateAck, Child: childKey, Ok: false})
		return sysReply{Err: errno}
	}
	ack := k.ikCall(p, dst, ikcRequest{Kind: ikcDelegateAck, Child: childKey, Ok: true})
	if ack.Err == ErrPeerDead {
		// The receiver's kernel may have inserted the child before a crash
		// swallowed its answer: the link stays for the reconciliation at its
		// rejoin, which revokes the child there (reconcileChains).
		return sysReply{Err: ack.Err}
	}
	if ack.Err != OK {
		// The receiver died before insertion ("Orphaned" on its side), or a
		// revocation dropped the prepared child: remove the link again.
		k.charge(p, k.sys.Cost.CapLink)
		if again := k.store.Lookup(req.Key); again != nil {
			again.RemoveChild(childKey)
		}
		k.stats.Orphans++
		return sysReply{Err: ack.Err}
	}
	k.stats.Delegates++
	return sysReply{Args: rep.Args}
}

// linkDelegated is the delegator's re-validation after the receiver's
// consent, and the link: a parent revoked meanwhile, or a delegator killed,
// must not leave a valid child behind.
func (k *Kernel) linkDelegated(p *sim.Proc, v *VPE, parent, child ddl.Key) Errno {
	cur := k.store.Lookup(parent)
	switch {
	case cur == nil:
		return ErrNoSuchCap
	case cur.Marked || v.exited:
		return ErrInRevocation
	}
	cur.AddChild(child)
	k.charge(p, k.sys.Cost.CapLink)
	return OK
}

// askReceiver resolves the receiving party of a delegation — the VPE named,
// or the service behind the session — and asks it for consent (a preemption
// point), returning the VPE the child is for and a service's protocol reply.
// remote as in grant.
func (k *Kernel) askReceiver(p *sim.Proc, req *ikcRequest, remote bool) (dstV *VPE, args any, errno Errno) {
	if req.Kind == ikcDelegate {
		dstV = k.vpeOf(req.ChildVPE)
		if k.gone(p, dstV) {
			return nil, nil, ErrVPEGone
		}
		if !k.askVPE(p, dstV, ExchangeQuery{Obtain: false, PeerVPE: req.VPE}) {
			return nil, nil, ErrDenied
		}
	} else {
		if remote {
			k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
		}
		if dstV = k.serviceOf(req.Child); dstV == nil {
			return nil, nil, ErrNoService
		}
		res := k.queryService(p, dstV, svcEvent{kind: SvcDelegate, ident: req.Ident, args: req.Args, obj: req.Object})
		if res.Errno != OK || !res.Accept {
			return nil, nil, ErrDenied
		}
		args = res.Reply
	}
	if dstV.exited {
		// Killed while it was asked: nothing is created for a dead VPE.
		return nil, nil, ErrVPEGone
	}
	return dstV, args, OK
}

// pendingChild is a delegation prepared at the receiver's kernel that awaits
// the delegator's acknowledgement (prepareDelegate), by value in
// Kernel.pendingDelegations under the child's key: the child but its key and
// its selector, which the acknowledgement allocates, and the incarnation of
// the delegator's kernel that asked for it (CheckInstant). 40 B, so preparing
// allocates nothing.
type pendingChild struct {
	parent ddl.Key
	obj    cap.Object
	owner  int
	inc    uint32
	perm   dtu.Perm
}

// prepareDelegate is handshake step 1 at the receiver's kernel: consent,
// then the child prepared but not inserted, its key returned. The reply may
// ride a reply envelope; the ack that depends on it is only sent by the
// delegator after that envelope is demuxed, so the pendingDelegations entry
// is always in place before the ack can arrive.
func (k *Kernel) prepareDelegate(p *sim.Proc, req *ikcRequest) ikcReply {
	dstV, args, errno := k.askReceiver(p, req, true)
	if errno != OK {
		return ikcReply{Err: errno}
	}
	if k.outlived(req) {
		return ikcReply{Err: ErrPeerDead}
	}
	key := k.mintKey(dstV.PE, dstV.ID, req.Object.ObjType())
	k.charge(p, k.sys.Cost.CapCreate)
	// Only kernel threads touch the table — except the reset at a scripted
	// recovery (beginRejoin), which runs from an event; on a machine where
	// that can happen the thread's time passes first, so the entry lands on
	// the side of the reset it always did, and is refused after one.
	if k.reliable {
		if p.Settle(); k.outlived(req) {
			return ikcReply{Err: ErrPeerDead}
		}
	}
	k.pendingDelegations.Put(key, pendingChild{parent: req.Key, obj: req.Object, owner: dstV.ID, inc: req.Inc, perm: req.Perm})
	return ikcReply{Key: key, Args: args}
}

// outlived reports whether a crash recovery, this kernel's or the
// requester's, came between req's admission and now: the requester's call
// has failed with ErrPeerDead, the rejoin has reconciled the two kernels
// (rejoin.go), and a reply or an acknowledgement would go to, or come from,
// a dead incarnation. A child linked or a delegation prepared for req now
// would leak forever.
func (k *Kernel) outlived(req *ikcRequest) bool {
	return k.reliable && (req.ToInc != k.incarnation || k.peer(req.From).inc != req.Inc)
}

// handleDelegateAck finishes the handshake at the receiver's kernel.
func (k *Kernel) handleDelegateAck(p *sim.Proc, req *ikcRequest) ikcReply {
	pc, ok := k.pendingDelegations.Get(req.Child)
	k.pendingDelegations.Delete(req.Child)
	if !ok {
		return ikcReply{Err: ErrNoSuchCap}
	}
	if !req.Ok {
		// Delegator aborted (parent revoked meanwhile): discard.
		return ikcReply{}
	}
	dstV := k.vpeOf(pc.owner)
	if k.gone(p, dstV) {
		// Orphaned on the receiver side: report back for unlinking.
		return ikcReply{Err: ErrVPEGone}
	}
	k.insertCap(p, childCap(req.Child, pc.owner, k.store.AllocSel(pc.owner), pc.obj, pc.perm, pc.parent))
	k.stats.Delegates++
	return ikcReply{}
}
