package core

import (
	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Services (paper §2.2 "Services on M3" and §3.3): OS services such as the
// m3fs filesystem run as ordinary VPEs. They register with their group
// kernel, which creates a service capability and publishes the service in
// the directory. Clients create sessions — session capabilities are
// children of the service capability, possibly across kernels — and then
// talk to the service directly over a DTU channel without kernel
// involvement; only capability exchanges go through the kernels.

// Service-side DTU endpoints used for client IPC.
const (
	svcFirstClientEP = 4
	svcLastClientEP  = 15
	svcClientEPs     = svcLastClientEP - svcFirstClientEP + 1
)

// SvcQueryKind distinguishes the queries a kernel puts to a service.
type SvcQueryKind uint8

// Service query kinds.
const (
	SvcOpen SvcQueryKind = iota
	SvcObtain
	SvcDelegate
)

// SvcResult is a service's answer to a kernel query.
type SvcResult struct {
	Errno  Errno
	Ident  uint64       // session identifier (open)
	SrcSel cap.Selector // capability to derive from (obtain)
	Accept bool         // delegate verdict
	Reply  any          // protocol-specific payload
}

// ServiceHandlers are the callbacks a service implements. They run on the
// service VPE's proc, one at a time (the service PE is a serial resource),
// with the per-request processing cost owed (sim.Proc.Charge): p.Now()
// already includes it, but the machine has not caught up yet. ServeLoop
// settles before the reply or the answer leaves, so a handler may add its own
// costs with p.Charge and pay for all of them with one switch, as long as it
// touches only the service's own state meanwhile. Everything that blocks on p
// — Sleep, a syscall, Session.Call, DTU reads and waits, the sim primitives —
// settles first and needs no care; a handler that publishes through a call
// that does not take p (a Queue.Push, a Future.Complete, a Wake, a write
// another proc polls) must call p.Settle() before it.
//
// Arguments and replies travel as the caller's and the handler's own
// values, never copied: args is what the client passed to Session.Call,
// Obtain or Delegate, and the handler may read it until it returns (the
// client is blocked on the answer, and a VPE has one call outstanding). A
// reply that is a pointer stays the handler's; the client reads it once the
// answer has been delivered, so the handler must leave it untouched until
// that client's next request arrives. One reply record per session does
// that (m3fs).
type ServiceHandlers struct {
	// Open decides on a new session. The handler runs on the service's proc
	// p and may issue service syscalls (e.g. derive capabilities).
	Open func(p *sim.Proc, clientVPE int, args any) SvcResult
	// Obtain picks the capability to hand out for a session-scoped obtain.
	Obtain func(p *sim.Proc, ident uint64, args any) SvcResult
	// Delegate accepts or refuses a capability pushed into the session.
	Delegate func(p *sim.Proc, ident uint64, args any, obj cap.Object) SvcResult
	// Request handles data-plane IPC from clients (no kernel involved).
	Request func(p *sim.Proc, ident uint64, args any) any
}

// svcEvent is a kernel's question to a service: a session to open, or the
// policy decision of a session-scoped exchange.
type svcEvent struct {
	kind   SvcQueryKind
	client int
	ident  uint64
	args   any
	obj    cap.Object
}

// svcItem is one entry of a service's work queue: a client's IPC request
// (msg) or a kernel query (q).
type svcItem struct {
	msg *dtu.Message
	q   *query
}

type localService struct {
	v        *VPE
	name     string
	handlers ServiceHandlers
	queue    *sim.Queue[svcItem]
	// ServeLoop's wait record (Ready): the item in hand — non-zero from the
	// moment it is taken until its answer has left — and, for a client
	// request, the handler's reply.
	item  svcItem
	reply any
}

// Ready implements sim.Waiter for ServeLoop, the service's counterpart of a
// kernel thread's record (kthread.go): once what the handler owes has
// elapsed, the answer to the item in hand leaves — the reply to the client,
// or the query back to the asking kernel — and the loop takes the next item
// or parks for it. All of that happens in the events themselves; the loop is
// switched in once per item.
func (s *localService) Ready(p *sim.Proc) bool {
	switch it := s.item; {
	case it.msg != nil:
		s.v.dtu.Reply(it.msg, s.reply, svcRepBytes)
	case it.q != nil:
		it.q.answer(svcRepBytes)
	}
	s.item, s.reply = svcItem{}, nil
	if !s.queue.Ready(p) {
		return false
	}
	s.item, _ = s.queue.TryPop()
	return true
}

// RegisterService registers this VPE as a service under the given name.
// After registering, the VPE must run ServeLoop to process requests.
func (v *VPE) RegisterService(p *sim.Proc, name string, h ServiceHandlers) error {
	v.svc = &localService{v: v, name: name, handlers: h, queue: sim.NewQueue[svcItem](v.sys.Eng)}
	rep := v.syscall(p, sysRequest{Kind: sysRegisterService, Name: name})
	if rep.Err != OK {
		v.svc = nil
	}
	return rep.Err.Err()
}

// ServeLoop processes service events forever: kernel queries (session
// open, capability exchange policy) and client IPC requests. Each event
// costs ServiceRequest cycles (an exchange-policy query ServiceObtainQuery),
// so a service instance saturates — the service-dependence effect of the
// paper's Figure 7.
func (v *VPE) ServeLoop(p *sim.Proc) {
	if v.svc == nil {
		panic("core: ServeLoop without RegisterService")
	}
	svc := v.svc
	h := svc.handlers
	cost := &v.sys.Cost
	for {
		p.ParkOn(svc) // the last item's answer leaves, the next item arrives
		if m := svc.item.msg; m != nil {
			p.Charge(cost.ServiceRequest)
			if h.Request != nil {
				svc.reply = h.Request(p, m.Label, m.Payload)
			}
			continue
		}
		q := svc.item.q
		ev := &q.ev
		switch ev.kind {
		case SvcOpen:
			p.Charge(cost.ServiceRequest)
			q.res = SvcResult{}
			if h.Open != nil {
				q.res = h.Open(p, ev.client, ev.args)
			}
		case SvcObtain:
			p.Charge(cost.ServiceObtainQuery)
			q.res = SvcResult{Errno: ErrDenied}
			if h.Obtain != nil {
				q.res = h.Obtain(p, ev.ident, ev.args)
			}
		case SvcDelegate:
			p.Charge(cost.ServiceObtainQuery)
			q.res = SvcResult{Errno: ErrDenied}
			if h.Delegate != nil {
				q.res = h.Delegate(p, ev.ident, ev.args, ev.obj)
			}
		}
	}
}

// queryService sends a query to a service VPE and waits for the answer (a
// preemption point for the kernel thread).
func (k *Kernel) queryService(p *sim.Proc, sv *VPE, ev svcEvent) SvcResult {
	q := k.newQuery(sv)
	q.ev = ev
	q.ask(p, stageAtService, svcReqBytes)
	res := q.res
	q.release()
	return res
}

// sysRegisterService creates the service capability and publishes the
// service in the directory. Registration happens at boot time and is not a
// measured path.
func (k *Kernel) sysRegisterService(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil || v.svc == nil {
		return sysReply{Err: ErrBadArgs}
	}
	if k.sys.services[req.Name] != nil {
		return sysReply{Err: ErrExists}
	}
	c := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeService),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &cap.ServiceObject{Name: req.Name, PE: v.PE, VPE: v.ID},
		Perm:   dtu.PermRW,
	}
	k.insertCap(p, c)
	// Client IPC endpoints; sessions are spread across them. The endpoints
	// are the service's and the directory is every kernel's: the creation
	// time passes first.
	p.Settle()
	q := v.svc.queue
	onRequest := func(m *dtu.Message) { q.Push(svcItem{msg: m}) }
	for ep := svcFirstClientEP; ep <= svcLastClientEP; ep++ {
		must(v.dtu.ConfigureRecv(k.dtu, ep, dtu.DefaultSlots, onRequest))
	}
	k.sys.services[req.Name] = &serviceEntry{name: req.Name, key: c.Key, kernel: k.id, vpe: v}
	return sysReply{Sel: c.Sel}
}

// --- session creation ----------------------------------------------------

// sessionInfo travels back to the client's kernel so it can configure the
// client's send endpoint for direct IPC.
type sessionInfo struct {
	SvcPE int
	SvcEP int
	Ident uint64
}

func (k *Kernel) sysCreateSession(p *sim.Proc, req *sysRequest) sysReply {
	v := k.vpeOf(req.VPE)
	if v == nil {
		return sysReply{Err: ErrVPEGone}
	}
	k.exec(p, k.sys.Cost.DDLDecode+k.sys.Cost.CapLookup)
	entry := k.sys.services[req.Name]
	if entry == nil {
		return sysReply{Err: ErrNoService}
	}
	if k.peerDead(entry.kernel) {
		// Degraded mode: the directory stops routing to a kernel this
		// kernel has declared dead — clients get ErrNoService instead of
		// a session doomed to fail-fast errors.
		return sysReply{Err: ErrNoService}
	}
	// The endpoint budget comes first: past this point the service opens a
	// session and the session capability is linked and inserted, and a
	// refusal afterwards would leave all three behind.
	ep := vpeFirstSessionEP + v.nextSessEP
	if ep > vpeLastSessionEP {
		return sysReply{Err: ErrBadArgs}
	}
	objID := k.gen.NextID(v.PE, v.ID)
	var info sessionInfo
	var parentKey ddl.Key
	if entry.kernel == k.id {
		svcCap := k.store.Lookup(entry.key)
		if svcCap == nil || svcCap.Marked {
			return sysReply{Err: ErrNoService}
		}
		res := k.queryService(p, entry.vpe, svcEvent{kind: SvcOpen, client: v.ID, args: req.Args})
		if res.Errno != OK {
			return sysReply{Err: res.Errno}
		}
		sessKey := ddl.NewKey(v.PE, v.ID, ddl.TypeSession, objID)
		// The service query is a preemption point and the store compacts
		// removed slots; re-resolve the service capability before linking.
		if cur := k.store.Lookup(entry.key); cur != nil {
			cur.AddChild(sessKey)
		}
		k.charge(p, k.sys.Cost.CapLink)
		info = sessionInfo{SvcPE: entry.vpe.PE, SvcEP: clientEPFor(res.Ident), Ident: res.Ident}
		parentKey = entry.key
		k.stats.Sessions++
	} else {
		k.charge(p, k.sys.Cost.IKCMarshal)
		rep := k.ikCall(p, entry.kernel, &ikcRequest{
			Kind:     ikcSession,
			Key:      entry.key,
			VPE:      v.ID,
			Args:     req.Args,
			ChildPE:  v.PE,
			ChildVPE: v.ID,
			ChildObj: objID,
		})
		if rep.Err != OK {
			return sysReply{Err: rep.Err}
		}
		info = rep.Args.(sessionInfo)
		parentKey = rep.Key
		k.stats.Sessions++
	}
	sessKey := ddl.NewKey(v.PE, v.ID, ddl.TypeSession, objID)
	sess := &cap.Capability{
		Key:    sessKey,
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &cap.SessionObject{Service: req.Name, Ident: info.Ident},
		Perm:   dtu.PermRW,
		Parent: parentKey,
	}
	k.insertCap(p, sess)
	// Configure the client's send endpoint for direct service IPC.
	v.nextSessEP++
	k.exec(p, k.sys.Cost.EPConfig)
	must(v.dtu.ConfigureSend(k.dtu, ep, info.SvcPE, info.SvcEP, 1, info.Ident))
	return sysReply{Sel: sess.Sel, Args: ep}
}

// clientEPFor spreads sessions across the service's client endpoints.
func clientEPFor(ident uint64) int {
	return svcFirstClientEP + int(ident%uint64(svcClientEPs))
}

// handleSessionReq runs at the service's kernel.
func (k *Kernel) handleSessionReq(p *sim.Proc, req *ikcRequest) *ikcReply {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	svcCap := k.store.Lookup(req.Key)
	if svcCap == nil || svcCap.Marked {
		return &ikcReply{Err: ErrNoService}
	}
	so := svcCap.Object.(*cap.ServiceObject)
	sv := k.vpeOf(so.VPE)
	if sv == nil || sv.exited || sv.svc == nil {
		return &ikcReply{Err: ErrNoService}
	}
	res := k.queryService(p, sv, svcEvent{kind: SvcOpen, client: req.VPE, args: req.Args})
	if res.Errno != OK {
		return &ikcReply{Err: res.Errno}
	}
	sessKey := ddl.NewKey(req.ChildPE, req.ChildVPE, ddl.TypeSession, req.ChildObj)
	// Re-resolve after the service query (preemption point): the store
	// compacts removed slots, so svcCap may no longer be the service.
	if cur := k.store.Lookup(req.Key); cur != nil {
		cur.AddChild(sessKey)
	}
	k.charge(p, k.sys.Cost.CapLink+k.sys.Cost.IKCMarshal)
	return &ikcReply{
		Key:  req.Key,
		Args: sessionInfo{SvcPE: sv.PE, SvcEP: clientEPFor(res.Ident), Ident: res.Ident},
	}
}

// --- session-scoped exchanges ---------------------------------------------

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
	svcKernel := k.member.KernelOfKey(sess.Parent)
	objID := k.gen.NextID(v.PE, v.ID)

	if svcKernel == k.id {
		entry := k.sys.services[so.Service]
		if entry == nil {
			return sysReply{Err: ErrNoService}
		}
		res := k.queryService(p, entry.vpe, svcEvent{kind: SvcObtain, ident: so.Ident, args: req.Args})
		if res.Errno != OK {
			return sysReply{Err: res.Errno}
		}
		src := k.lookupSel(p, entry.vpe.ID, res.SrcSel)
		if src == nil {
			return sysReply{Err: ErrNoSuchCap}
		}
		if src.Marked {
			return sysReply{Err: ErrInRevocation}
		}
		obj := deriveObject(src.Object)
		childKey := ddl.NewKey(v.PE, v.ID, obj.ObjType(), objID)
		src.AddChild(childKey)
		k.charge(p, k.sys.Cost.CapLink)
		child := &cap.Capability{
			Key:    childKey,
			Owner:  v.ID,
			Sel:    k.store.AllocSel(v.ID),
			Object: obj,
			Perm:   src.Perm,
			Parent: src.Key,
		}
		k.insertCap(p, child)
		k.stats.Obtains++
		return sysReply{Sel: child.Sel, Args: res.Reply}
	}

	k.charge(p, k.sys.Cost.IKCMarshal)
	rep := k.ikCall(p, svcKernel, &ikcRequest{
		Kind:     ikcObtainSess,
		Key:      sess.Parent,
		Ident:    so.Ident,
		VPE:      v.ID,
		Args:     req.Args,
		ChildPE:  v.PE,
		ChildVPE: v.ID,
		ChildObj: objID,
	})
	if rep.Err != OK {
		return sysReply{Err: rep.Err}
	}
	childKey := ddl.NewKey(v.PE, v.ID, rep.Object.ObjType(), objID)
	if v.exited {
		k.stats.Orphans++
		k.notifyUnlink(p, svcKernel, rep.Key, childKey)
		return sysReply{Err: ErrVPEGone}
	}
	child := &cap.Capability{
		Key:    childKey,
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: rep.Object,
		Perm:   rep.Perm,
		Parent: rep.Key,
	}
	k.insertCap(p, child)
	k.stats.Obtains++
	return sysReply{Sel: child.Sel, Args: rep.Args}
}

// handleObtainSessReq runs at the service's kernel: ask the service which
// capability to hand out, link the child and return the object.
func (k *Kernel) handleObtainSessReq(p *sim.Proc, req *ikcRequest) *ikcReply {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	svcCap := k.store.Lookup(req.Key)
	if svcCap == nil || svcCap.Marked {
		return &ikcReply{Err: ErrNoService}
	}
	so := svcCap.Object.(*cap.ServiceObject)
	sv := k.vpeOf(so.VPE)
	if sv == nil || sv.exited || sv.svc == nil {
		return &ikcReply{Err: ErrNoService}
	}
	res := k.queryService(p, sv, svcEvent{kind: SvcObtain, ident: req.Ident, args: req.Args})
	if res.Errno != OK {
		return &ikcReply{Err: res.Errno}
	}
	src := k.lookupSel(p, sv.ID, res.SrcSel)
	if src == nil {
		return &ikcReply{Err: ErrNoSuchCap}
	}
	if src.Marked {
		return &ikcReply{Err: ErrInRevocation}
	}
	obj := deriveObject(src.Object)
	childKey := ddl.NewKey(req.ChildPE, req.ChildVPE, obj.ObjType(), req.ChildObj)
	src.AddChild(childKey)
	k.charge(p, k.sys.Cost.CapLink+k.sys.Cost.IKCMarshal)
	return &ikcReply{Key: src.Key, Object: obj, Perm: src.Perm, Args: res.Reply}
}

// sysDelegateSess pushes the client's capability at req.Sel into the
// session (req.TargetSel), e.g. granting a service access to client memory.
// Across kernels it reuses the delegate two-way handshake.
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
	so, ok := sess.Object.(*cap.SessionObject)
	if !ok {
		return sysReply{Err: ErrBadArgs}
	}
	k.exec(p, k.sys.Cost.DDLDecode)
	svcKernel := k.member.KernelOfKey(sess.Parent)

	if svcKernel == k.id {
		entry := k.sys.services[so.Service]
		if entry == nil {
			return sysReply{Err: ErrNoService}
		}
		obj := deriveObject(c.Object)
		// The service query is a preemption point; re-resolve the delegated
		// capability by key afterwards (the store compacts removed slots).
		cKey := c.Key
		res := k.queryService(p, entry.vpe, svcEvent{kind: SvcDelegate, ident: so.Ident, args: req.Args, obj: obj})
		if res.Errno != OK || !res.Accept {
			return sysReply{Err: ErrDenied}
		}
		cur := k.store.Lookup(cKey)
		if cur == nil || cur.Marked {
			return sysReply{Err: ErrInRevocation}
		}
		child := &cap.Capability{
			Key:    k.mintKey(entry.vpe.PE, entry.vpe.ID, obj.ObjType()),
			Owner:  entry.vpe.ID,
			Sel:    k.store.AllocSel(entry.vpe.ID),
			Object: obj,
			Perm:   cur.Perm,
			Parent: cKey,
		}
		cur.AddChild(child.Key)
		k.charge(p, k.sys.Cost.CapLink)
		k.insertCap(p, child)
		k.stats.Delegates++
		return sysReply{Sel: child.Sel, Args: res.Reply}
	}

	// Inter-kernel calls below are preemption points; resolve the delegated
	// capability by its hoisted key afterwards, never through the pointer.
	cKey := c.Key
	k.charge(p, k.sys.Cost.IKCMarshal)
	rep := k.ikCall(p, svcKernel, &ikcRequest{
		Kind:   ikcDelegateSess,
		Key:    cKey,
		Ident:  so.Ident,
		VPE:    v.ID,
		Object: deriveObject(c.Object),
		Perm:   c.Perm,
		Args:   req.Args,
		Child:  sess.Parent, // service capability key
	})
	if rep.Err != OK {
		return sysReply{Err: rep.Err}
	}
	childKey := rep.Key
	k.exec(p, k.sys.Cost.CapLookup)
	cur := k.store.Lookup(cKey)
	if cur == nil || cur.Marked {
		k.ikCall(p, svcKernel, &ikcRequest{Kind: ikcDelegateAck, Child: childKey, Ok: false})
		return sysReply{Err: ErrInRevocation}
	}
	cur.AddChild(childKey)
	k.charge(p, k.sys.Cost.CapLink)
	ack := k.ikCall(p, svcKernel, &ikcRequest{Kind: ikcDelegateAck, Child: childKey, Ok: true})
	if ack.Err != OK {
		if again := k.store.Lookup(cKey); again != nil {
			again.RemoveChild(childKey)
		}
		k.stats.Orphans++
		return sysReply{Err: ack.Err}
	}
	k.stats.Delegates++
	return sysReply{Args: rep.Args}
}

// handleDelegateSessReq runs at the service's kernel: ask the service for
// consent, prepare the child (handshake step 1).
func (k *Kernel) handleDelegateSessReq(p *sim.Proc, req *ikcRequest) *ikcReply {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	svcCap := k.store.Lookup(req.Child)
	if svcCap == nil || svcCap.Marked {
		return &ikcReply{Err: ErrNoService}
	}
	so := svcCap.Object.(*cap.ServiceObject)
	sv := k.vpeOf(so.VPE)
	if sv == nil || sv.exited || sv.svc == nil {
		return &ikcReply{Err: ErrNoService}
	}
	inc := k.incarnation
	res := k.queryService(p, sv, svcEvent{kind: SvcDelegate, ident: req.Ident, args: req.Args, obj: req.Object})
	if res.Errno != OK || !res.Accept {
		return &ikcReply{Err: ErrDenied}
	}
	if k.incarnation != inc {
		// Parked across a crash recovery: the rejoin reset wiped the
		// pending-delegation table and the originator aborted, so the entry
		// below could never be acknowledged (rejoin.go).
		return &ikcReply{Err: ErrPeerDead}
	}
	childKey := k.mintKey(sv.PE, sv.ID, req.Object.ObjType())
	child := &cap.Capability{
		Key:    childKey,
		Owner:  sv.ID,
		Object: req.Object,
		Perm:   req.Perm,
		Parent: req.Key,
	}
	k.charge(p, k.sys.Cost.CapCreate)
	k.prepareDelegation(p, child)
	return &ikcReply{Key: childKey, Args: res.Reply}
}

// --- client-side session API ----------------------------------------------

// Session is a client's handle to a service connection.
type Session struct {
	Sel cap.Selector
	v   *VPE
	ep  int
}

// CreateSession connects to a named service, returning a session handle.
func (v *VPE) CreateSession(p *sim.Proc, name string, args any) (*Session, error) {
	v.capOps++
	rep := v.syscall(p, sysRequest{Kind: sysCreateSession, Name: name, Args: args})
	if rep.Err != OK {
		return nil, rep.Err
	}
	return &Session{Sel: rep.Sel, v: v, ep: rep.Args.(int)}, nil
}

// Call performs data-plane IPC with the service: no kernel involved, only
// the DTU channel configured at session creation.
func (s *Session) Call(p *sim.Proc, args any) (any, error) {
	p.Settle() // a service calling another from a handler owes its request cost
	if err := s.v.dtu.Send(s.ep, args, svcReqBytes, vpeServiceReplyEP, 0); err != nil {
		return nil, err
	}
	m := s.v.dtu.Wait(p, vpeServiceReplyEP)
	reply := m.Payload
	s.v.dtu.Ack(m)
	return reply, nil
}

// Obtain asks the service for a capability (e.g. a memory capability for a
// file range) through the kernels.
func (s *Session) Obtain(p *sim.Proc, args any) (cap.Selector, any, error) {
	s.v.capOps++
	rep := s.v.syscall(p, sysRequest{Kind: sysObtainSess, Sel: s.Sel, Args: args})
	return rep.Sel, rep.Args, rep.Err.Err()
}

// Delegate pushes one of the client's capabilities into the session.
func (s *Session) Delegate(p *sim.Proc, sel cap.Selector, args any) (any, error) {
	s.v.capOps++
	rep := s.v.syscall(p, sysRequest{Kind: sysDelegateSess, Sel: sel, TargetSel: s.Sel, Args: args})
	return rep.Args, rep.Err.Err()
}

// Close revokes the session capability, severing the connection.
func (s *Session) Close(p *sim.Proc) error {
	return s.v.Revoke(p, s.Sel)
}
