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
// involvement; only capability exchanges go through the kernels. Opening a
// session and the session-scoped obtain and delegate are the exchange
// protocol of exchange.go with the service as the consenting party
// (DESIGN.md "The exchange protocol, once"); this file holds what is the
// service's own: registration, the serve loop, the kernel's query to it, and
// the client-side handle.

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

// ServiceHandlers is what a service implements (m3fs.FS, for one). Its
// methods run on the service VPE's proc, one at a time (the service PE is a
// serial resource), with the per-request processing cost owed
// (sim.Proc.Charge): p.Now() already includes it, but the machine has not
// caught up yet. ServeLoop settles before the reply or the answer leaves, so
// a handler may add its own costs with p.Charge and pay for all of them with
// one switch, as long as it touches only the service's own state meanwhile.
// Everything that blocks on p — Sleep, a syscall, Session.Call, DTU reads and
// waits, the sim primitives — settles first and needs no care; a handler
// that publishes through a call that does not take p (a Queue.Push, a
// Future.Complete, a Wake, a write another proc polls) must call p.Settle()
// before it.
//
// Arguments and replies travel as the caller's and the handler's own
// values, never copied: args is what the client passed to Session.Call,
// Obtain or Delegate, and the handler may read it until it returns (the
// client is blocked on the answer, and a VPE has one call outstanding). A
// reply that is a pointer stays the handler's; the client reads it once the
// answer has been delivered, so the handler must leave it untouched until
// that client's next request arrives. One reply record per session does
// that (m3fs).
type ServiceHandlers interface {
	// Open decides on a new session. It may issue service syscalls (e.g.
	// derive capabilities).
	Open(p *sim.Proc, clientVPE int, args any) SvcResult
	// Obtain picks the capability to hand out for a session-scoped obtain;
	// ErrDenied refuses.
	Obtain(p *sim.Proc, ident uint64, args any) SvcResult
	// Delegate accepts or refuses a capability pushed into the session.
	Delegate(p *sim.Proc, ident uint64, args any, obj cap.Object) SvcResult
	// Request handles data-plane IPC from clients (no kernel involved).
	Request(p *sim.Proc, ident uint64, args any) any
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
	queue    sim.Queue[svcItem]
	// entry and obj are the service's directory entry and the object of its
	// service capability (sysRegisterService): they live in the record, as
	// a VPE's root object lives in the VPE's.
	entry serviceEntry
	obj   cap.ServiceObject
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
	v.svc = v.sys.svcRecs.New(serviceBlock)
	*v.svc = localService{v: v, name: name, handlers: h}
	g := len(v.kernel.group) // the service's clients, as far as boot can tell
	v.svc.queue.Use(v.sys.svcItems.Take(g, serviceBlock*g), nil)
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
			svc.reply = h.Request(p, m.Label, m.Payload)
			continue
		}
		q := svc.item.q
		ev := &q.ev
		switch ev.kind {
		case SvcOpen:
			p.Charge(cost.ServiceRequest)
			q.res = h.Open(p, ev.client, ev.args)
		case SvcObtain:
			p.Charge(cost.ServiceObtainQuery)
			q.res = h.Obtain(p, ev.ident, ev.args)
		case SvcDelegate:
			p.Charge(cost.ServiceObtainQuery)
			q.res = h.Delegate(p, ev.ident, ev.args, ev.obj)
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
	svc := v.svc
	svc.obj = cap.ServiceObject{Name: req.Name, PE: v.PE, VPE: v.ID}
	c := &cap.Capability{
		Key:    k.mintKey(v.PE, v.ID, ddl.TypeService),
		Owner:  v.ID,
		Sel:    k.store.AllocSel(v.ID),
		Object: &svc.obj,
		Perm:   dtu.PermRW,
	}
	k.insertCap(p, c)
	// Client IPC endpoints; sessions are spread across them. The endpoints
	// are the service's and the directory is every kernel's: the creation
	// time passes first.
	p.Settle()
	q := &svc.queue
	onRequest := func(m *dtu.Message) { q.Push(svcItem{msg: m}) }
	for ep := svcFirstClientEP; ep <= svcLastClientEP; ep++ {
		must(v.dtu.ConfigureRecv(k.dtu, ep, dtu.DefaultSlots, onRequest))
	}
	svc.entry = serviceEntry{name: req.Name, key: c.Key, kernel: k.id, vpe: v}
	k.sys.services[req.Name] = &svc.entry
	return sysReply{Sel: c.Sel}
}

// --- session creation ----------------------------------------------------

// sysCreateSession opens a session: an obtain (exchange.go) whose source is
// the service capability and whose consenting party is the service, plus the
// client's send endpoint for direct IPC.
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
	rep := k.obtain(p, v, entry.kernel, ikcRequest{Kind: ikcSession, Key: entry.key, Args: req.Args})
	if rep.Err != OK {
		return rep
	}
	// Configure the client's send endpoint for direct service IPC; the
	// session capability just inserted names the session.
	ident := k.store.LookupSel(v.ID, rep.Sel).Object.(*cap.SessionObject).Ident
	v.nextSessEP++
	k.exec(p, k.sys.Cost.EPConfig)
	must(v.dtu.ConfigureSend(k.dtu, ep, entry.vpe.PE, clientEPFor(ident), 1, ident))
	return sysReply{Sel: rep.Sel, Args: ep}
}

// clientEPFor spreads sessions across the service's client endpoints.
func clientEPFor(ident uint64) int {
	return svcFirstClientEP + int(ident%uint64(svcClientEPs))
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
	s := v.sys.sessRecs.New(sessionBlock)
	*s = Session{Sel: rep.Sel, v: v, ep: rep.Args.(int)}
	return s, nil
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
