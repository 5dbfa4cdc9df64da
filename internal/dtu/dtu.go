// Package dtu models the data transfer unit (DTU), the hardware component
// that M3 and SemperOS place next to every processing element (PE).
//
// The DTU is the PE's only gateway to the rest of the machine: it exchanges
// messages with other DTUs over the NoC and checks every remote memory
// access (CheckMem). Controlling a PE's DTU therefore suffices to isolate
// the PE (NoC-level isolation). Following the paper's evaluation platform,
// each DTU provides 16 endpoints; receive endpoints hold up to 32 message
// slots; a message arriving at a full endpoint is lost, which is why the
// kernels bound their in-flight messages.
//
// Endpoints are configured only by privileged DTUs. At boot all DTUs are
// privileged; the kernel downgrades every user DTU and remains the only
// privileged one, mirroring the M3 boot protocol.
package dtu

import (
	"errors"
	"fmt"

	"repro/internal/noc"
	"repro/internal/sim"
)

// Architectural constants of the evaluation platform (paper §5.1).
const (
	// NumEndpoints is the number of endpoints per DTU.
	NumEndpoints = 16
	// DefaultSlots is the number of message slots per receive endpoint.
	DefaultSlots = 32
	// headerBytes is the wire overhead charged per message.
	headerBytes = 32
)

// Errors returned by DTU operations.
var (
	ErrNoCredits     = errors.New("dtu: no credits on send endpoint")
	ErrBadEndpoint   = errors.New("dtu: endpoint not configured for this operation")
	ErrNotPrivileged = errors.New("dtu: operation requires a privileged DTU")
	ErrOutOfBounds   = errors.New("dtu: memory access out of bounds")
	ErrNoPerm        = errors.New("dtu: missing permission on memory endpoint")
)

// Perm is a permission bit set for memory endpoints and capabilities.
type Perm uint8

// Permission bits.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	// PermRW is the common read-write combination.
	PermRW = PermR | PermW
)

func (p Perm) String() string {
	buf := []byte("---")
	if p&PermR != 0 {
		buf[0] = 'r'
	}
	if p&PermW != 0 {
		buf[1] = 'w'
	}
	if p&PermX != 0 {
		buf[2] = 'x'
	}
	return string(buf)
}

// EpKind is the configured role of an endpoint.
type EpKind uint8

// Endpoint kinds.
const (
	EpInvalid EpKind = iota
	EpSend
	EpRecv
	EpMem
)

func (k EpKind) String() string {
	switch k {
	case EpSend:
		return "send"
	case EpRecv:
		return "recv"
	case EpMem:
		return "mem"
	default:
		return "invalid"
	}
}

// Message is a message delivered to a receive endpoint. It occupies a slot
// until the receiver calls Reply, Ack or Free. Messages that arrived inside
// a coalesced vector (SendVecTo) share one slot: it is freed when the last
// sibling is freed.
//
// Messages are recycled: Reply, Ack and Free hand the object back to its
// Fabric, which reuses it for a later send. Nothing of a message — not its
// Payload, not its Label — may be read after Reply, Ack or Free; take what
// you need first. A released object keeps its fields zeroed until it is
// reused, so a stale read yields nil rather than another message's data,
// and releasing it a second time panics.
type Message struct {
	SrcPE   int
	SrcEP   int
	ReplyEP int // endpoint at the sender that accepts the reply, -1 if none
	Label   uint64
	Payload any
	Size    int

	// Wire state: where the NoC takes the message. dstDTU is also the DTU
	// whose slot the message occupies once delivered.
	dstDTU *DTU
	vec    *vecMeta // non-nil for messages of a coalesced vector
	// arrive is onArrive bound once, when the object is first made, so a
	// send schedules the message itself instead of a fresh closure.
	arrive   func()
	dstEP    int16 // receive endpoint at dstDTU; -1 for a bare credit message
	creditEP int16 // send endpoint at dstDTU whose credit the arrival restores; -1 if none
	dups     uint8 // injected duplicate deliveries still to come after the next one
	freed    bool
}

// vecMeta is one coalesced vector on the wire and its shared bookkeeping at
// the receiver: the siblings occupy a single receive slot (the vector is one
// wire message), released when the last of them is freed — at which point
// the vecMeta itself, msgs included, goes back to the Fabric.
type vecMeta struct {
	msgs      []*Message
	remaining int
	dst       *DTU
	ep        int
	dups      uint8
	arrive    func() // onArrive, bound once
}

// Handler consumes messages arriving at a receive endpoint.
type Handler func(*Message)

// VecHandler consumes a whole coalesced vector in one call — one delivery
// event and (typically) one consumer-thread handoff per batch instead of
// per message. Endpoints configured with ConfigureRecvVec use it. The slice
// is recycled with the vector: it is valid until the last of its messages
// is freed.
type VecHandler func([]*Message)

// VecItem is one element of a coalesced vectored send.
type VecItem struct {
	Payload any
	Size    int
	Label   uint64
}

// endpoint is one endpoint register set, sized for send and memory
// endpoints: those are what most endpoints of a machine are, and a user PE
// configures only two or three of its sixteen. The receive-only state sits
// behind recv, which is non-nil exactly while the endpoint is a receive
// endpoint.
type endpoint struct {
	kind EpKind
	perm Perm // mem

	// A send endpoint's target, credits and label; a memory endpoint's
	// window of PE memPE's memory. The order packs them into six words.
	dstPE, dstEP        int32
	credits, maxCredits int32
	memPE               int32
	label               uint64
	memOff, memSize     uint64

	recv *recvState
}

// recvState is what only a receive endpoint holds. It comes from its
// Fabric's recycler and goes back to it when the endpoint is reconfigured
// (configureRecv). An endpoint without a handler queues its messages on
// queue, where Wait's procs wait for them.
type recvState struct {
	slots      int
	used       int
	queue      sim.Queue[*Message]
	handler    Handler
	vecHandler VecHandler
}

// Stats counts per-DTU receive activity (the NoC counts every send).
// Received counts logical messages; VecDeliveries counts coalesced vectors
// delivered, each carrying several logical messages in one delivery event
// and one receive slot.
type Stats struct {
	Received      uint64
	Lost          uint64
	VecDeliveries uint64
}

// DTU is one data transfer unit, attached to PE `pe`.
type DTU struct {
	fabric     *Fabric
	pe         int
	privileged bool
	eps        [NumEndpoints]endpoint
	memCap     int // declared local memory size, the bound of CheckMem
	stats      Stats
}

// Fabric owns all DTUs of a machine and the NoC connecting them.
type Fabric struct {
	net  *noc.Network
	dtus []*DTU
	// slab holds the DTUs themselves, one per PE, in one allocation.
	slab []DTU
	// msgs, vecs and recvs recycle the machine's messages, coalesced
	// vectors and receive-endpoint state. They belong to this machine alone
	// and are collected with it.
	msgs  sim.Recycler[Message]
	vecs  sim.Recycler[vecMeta]
	recvs sim.Recycler[recvState]
}

// NewFabric creates a fabric over the given network. One DTU per PE must be
// added with Add before use. The engine is the network's; the fabric keeps
// no reference of its own.
func NewFabric(_ *sim.Engine, net *noc.Network) *Fabric {
	return &Fabric{
		net:  net,
		dtus: make([]*DTU, net.Nodes()),
		slab: make([]DTU, net.Nodes()),
	}
}

// Add attaches a new DTU (initially privileged) to PE pe with memBytes of
// local memory exposed to remote memory endpoints.
func (f *Fabric) Add(pe int, memBytes int) *DTU {
	if f.dtus[pe] != nil {
		panic(fmt.Sprintf("dtu: PE %d already has a DTU", pe))
	}
	d := &f.slab[pe]
	*d = DTU{fabric: f, pe: pe, privileged: true, memCap: memBytes}
	f.dtus[pe] = d
	return d
}

// DTU returns the DTU attached to PE pe.
func (f *Fabric) DTU(pe int) *DTU { return f.dtus[pe] }

// Held returns how many messages and coalesced vectors of the fabric are
// out of its recyclers: on the wire, queued at an endpoint, held by a
// consumer, or abandoned to the garbage collector by an endpoint
// reconfigured with messages still queued.
func (f *Fabric) Held() (msgs, vecs int) { return f.msgs.Held(), f.vecs.Held() }

// PE returns the PE this DTU is attached to.
func (d *DTU) PE() int { return d.pe }

// Stats returns a snapshot of the DTU's counters.
func (d *DTU) Stats() Stats { return d.stats }

// Downgrade removes the privileged status. The kernel downgrades all user
// DTUs during boot; only kernel DTUs stay privileged.
func (d *DTU) Downgrade() { d.privileged = false }

// configuring endpoints ------------------------------------------------

// checkEP panics on out-of-range endpoint indices: that is a programming
// error in the simulation, not a modeled fault.
func checkEP(ep int) {
	if ep < 0 || ep >= NumEndpoints {
		panic(fmt.Sprintf("dtu: endpoint %d out of range", ep))
	}
}

// configure replaces endpoint ep's configuration with e. The receive state
// of the old configuration is dropped — its queued messages and waiters
// with it, as the hardware forgets them — and kept for reuse.
func (d *DTU) configure(ep int, e endpoint) {
	if r := d.eps[ep].recv; r != nil {
		*r = recvState{}
		d.fabric.recvs.Put(r)
	}
	d.eps[ep] = e
}

// ConfigureSend sets up a send endpoint targeting (dstPE, dstEP) with the
// given credits. by must be privileged (pass the DTU itself if it is).
func (d *DTU) ConfigureSend(by *DTU, ep, dstPE, dstEP, credits int, label uint64) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	d.configure(ep, endpoint{kind: EpSend, dstPE: int32(dstPE), dstEP: int32(dstEP),
		credits: int32(credits), maxCredits: int32(credits), label: label})
	return nil
}

// configureRecv sets up a receive endpoint with one of the two handlers.
func (d *DTU) configureRecv(by *DTU, ep, slots int, h Handler, vh VecHandler) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	if slots <= 0 {
		slots = DefaultSlots
	}
	d.configure(ep, endpoint{kind: EpRecv})
	// Zeroed state: a reconfigured endpoint's, or the next of a block of one
	// state per PE, so booting takes one allocation for every that many
	// receive endpoints.
	r := d.fabric.recvs.New(max(len(d.fabric.dtus), 16))
	r.slots, r.handler, r.vecHandler = slots, h, vh
	d.eps[ep].recv = r
	return nil
}

// ConfigureRecv sets up a receive endpoint with the given number of message
// slots (0 means DefaultSlots) and an optional handler. With a handler,
// arriving messages are passed to it; without, they queue for Wait.
func (d *DTU) ConfigureRecv(by *DTU, ep, slots int, h Handler) error {
	return d.configureRecv(by, ep, slots, h, nil)
}

// ConfigureRecvVec sets up a receive endpoint whose handler consumes whole
// coalesced vectors (see SendVecTo): one handler call per arriving vector
// instead of one per message. Single messages arriving at the endpoint are
// passed as one-element vectors.
func (d *DTU) ConfigureRecvVec(by *DTU, ep, slots int, h VecHandler) error {
	return d.configureRecv(by, ep, slots, nil, h)
}

// ConfigureMem sets up a memory endpoint granting perm access to
// [off, off+size) in PE memPE's local memory.
func (d *DTU) ConfigureMem(by *DTU, ep, memPE int, off, size uint64, perm Perm) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	d.configure(ep, endpoint{kind: EpMem, memPE: int32(memPE), memOff: off, memSize: size, perm: perm})
	return nil
}

// Invalidate resets an endpoint. Used when capabilities are revoked: the
// kernel invalidates any endpoint configured from a revoked capability.
func (d *DTU) Invalidate(by *DTU, ep int) error {
	checkEP(ep)
	if !by.privileged {
		return ErrNotPrivileged
	}
	d.configure(ep, endpoint{})
	return nil
}

// EpKindOf returns the configured kind of an endpoint.
func (d *DTU) EpKindOf(ep int) EpKind {
	checkEP(ep)
	return d.eps[ep].kind
}

// MemWindow returns the window a memory endpoint grants: the target PE and
// the offset and size of the region in its memory.
func (d *DTU) MemWindow(ep int) (pe int, off, size uint64) {
	checkEP(ep)
	e := &d.eps[ep]
	return int(e.memPE), e.memOff, e.memSize
}

// Credits returns the available credits of a send endpoint.
func (d *DTU) Credits(ep int) int {
	checkEP(ep)
	return int(d.eps[ep].credits)
}

// Occupied returns how many slots of a receive endpoint hold a message that
// has been delivered and not yet freed (Reply, Ack, Free); 0 for any other
// kind of endpoint.
func (d *DTU) Occupied(ep int) int {
	checkEP(ep)
	if r := d.eps[ep].recv; r != nil {
		return r.used
	}
	return 0
}

// messaging --------------------------------------------------------------

// newMessage takes a released message, or makes one from the current
// block. A machine has fewer messages in flight at once than it has PEs (a
// loaded apps machine about 0.9 per PE), so blocks of a quarter of its PEs
// serve a busy machine in a few allocations and waste little of an idle
// one.
func (f *Fabric) newMessage() *Message {
	m := f.msgs.New(max(len(f.dtus)/4, 16))
	if m.arrive == nil {
		m.arrive = m.onArrive
	}
	m.freed = false
	return m
}

// clone returns a copy of m in an object of its own.
func (f *Fabric) clone(m *Message) *Message {
	c := f.newMessage()
	arrive := c.arrive
	*c = *m
	c.arrive = arrive
	return c
}

// release hands m back for reuse. Its fields stay zeroed and freed stays
// set until it is reused (see Message).
func (f *Fabric) release(m *Message) {
	*m = Message{arrive: m.arrive, freed: true}
	f.msgs.Put(m)
}

func (f *Fabric) newVec() *vecMeta {
	v := f.vecs.New(1)
	if v.arrive == nil {
		v.arrive = v.onArrive
	}
	return v
}

// releaseVec hands v back for reuse; its messages are released (or still
// held by their consumers) already.
func (f *Fabric) releaseVec(v *vecMeta) {
	clear(v.msgs)
	*v = vecMeta{msgs: v.msgs[:0], arrive: v.arrive}
	f.vecs.Put(v)
}

// dropVec releases a whole vector nobody received.
func (f *Fabric) dropVec(v *vecMeta) {
	for _, m := range v.msgs {
		f.release(m)
	}
	f.releaseVec(v)
}

// transmit puts m on the wire towards m.dstDTU. A message the fabric drops
// is released at once; one it duplicates stays scheduled for its second
// delivery while the first arrival takes a copy (onArrive).
func (f *Fabric) transmit(src, size int, m *Message) {
	switch f.net.Send(src, m.dstDTU.pe, size, m.arrive) {
	case 0:
		f.release(m)
	case 2:
		m.dups = 1
	}
}

// onArrive is the delivery event of a message: restore the credit it
// carries, then occupy a slot at the destination endpoint. When an injected
// duplicate of m is still to come, this arrival delivers a copy: its
// consumer may reply and release within this very event, before the
// duplicate lands, so the two deliveries must never share an object.
func (m *Message) onArrive() {
	d := m.dstDTU
	if m.dups > 0 {
		m.dups--
		m = d.fabric.clone(m)
	}
	if m.creditEP >= 0 {
		d.restoreCredit(int(m.creditEP))
	}
	if m.dstEP < 0 {
		d.fabric.release(m)
		return
	}
	d.deliver(int(m.dstEP), m)
}

// onArrive is the delivery event of a coalesced vector; a duplicated vector
// delivers a copy first, like a single message.
func (v *vecMeta) onArrive() {
	if v.dups > 0 {
		v.dups--
		f := v.dst.fabric
		c := f.newVec()
		c.remaining, c.dst, c.ep = v.remaining, v.dst, v.ep
		for _, m := range v.msgs {
			cm := f.clone(m)
			cm.vec = c
			c.msgs = append(c.msgs, cm)
		}
		v = c
	}
	v.dst.deliverVec(v.ep, v)
}

// Send transmits payload over send endpoint ep. replyEP names the local
// receive endpoint for the reply (-1 if no reply is expected). One credit is
// consumed; it returns when the peer replies or acks.
func (d *DTU) Send(ep int, payload any, size int, replyEP int, label uint64) error {
	checkEP(ep)
	if replyEP >= 0 {
		checkEP(replyEP) // it travels in the message as an int16
	}
	e := &d.eps[ep]
	if e.kind != EpSend {
		return ErrBadEndpoint
	}
	if e.credits <= 0 {
		return ErrNoCredits
	}
	e.credits--
	f := d.fabric
	m := f.newMessage()
	m.SrcPE, m.SrcEP, m.ReplyEP = d.pe, ep, replyEP
	m.Label = e.label
	if label != 0 {
		m.Label = label
	}
	m.Payload, m.Size = payload, size
	m.dstDTU, m.dstEP, m.creditEP = f.dtus[e.dstPE], int16(e.dstEP), -1
	f.transmit(d.pe, size+headerBytes, m)
	return nil
}

// deliver places msg into receive endpoint ep, or drops it if no slot is
// free (the architectural behavior the kernels must avoid by bounding their
// in-flight messages).
func (d *DTU) deliver(ep int, msg *Message) {
	e := d.eps[ep].recv
	if e == nil || e.used >= e.slots {
		d.stats.Lost++
		d.fabric.net.CountLost()
		d.fabric.release(msg)
		return
	}
	e.used++
	d.stats.Received++
	if e.vecHandler != nil {
		e.vecHandler([]*Message{msg})
		return
	}
	if e.handler != nil {
		e.handler(msg)
		return
	}
	e.queue.Push(msg)
}

// SendVecTo transmits items as one coalesced transfer into (dstPE, dstEP),
// without a send endpoint: the whole vector is one wire message (one NoC
// event, one receive slot at the destination, one delivery event) that the
// receiver sees as len(items) logical messages. Only privileged DTUs (the
// kernels) may use it — their flow control lives above the DTU, in the
// in-flight message accounting of the inter-kernel protocol, so no send
// credits are consumed. A vec-handler endpoint gets the whole vector in one
// call (one consumer handoff per batch), and a handler that frees each
// message as it goes releases the shared slot within the delivery event
// itself. It cuts the per-message NoC events and consumer handoffs that
// dominate wide fan-outs. items is read before SendVecTo returns; the
// caller may reuse it.
func (d *DTU) SendVecTo(dstPE, dstEP int, items []VecItem) error {
	if !d.privileged {
		return ErrNotPrivileged
	}
	checkEP(dstEP)
	if len(items) == 0 {
		return ErrBadEndpoint
	}
	f := d.fabric
	dst := f.dtus[dstPE]
	v := f.newVec()
	v.remaining, v.dst, v.ep = len(items), dst, dstEP
	total := headerBytes
	for _, it := range items {
		total += it.Size
		m := f.newMessage()
		m.SrcPE, m.SrcEP, m.ReplyEP = d.pe, -1, -1
		m.Label, m.Payload, m.Size = it.Label, it.Payload, it.Size
		m.dstDTU, m.dstEP, m.creditEP, m.vec = dst, int16(dstEP), -1, v
		v.msgs = append(v.msgs, m)
	}
	switch f.net.Send(d.pe, dstPE, total, v.arrive) {
	case 0:
		f.dropVec(v)
	case 2:
		v.dups = 1
	}
	return nil
}

// deliverVec places a coalesced vector into receive endpoint ep. The vector
// occupies a single slot (it is one wire message); if none is free the
// whole vector is lost. Vec-handler endpoints get one call with all
// messages; plain handlers are invoked per message but still within the
// single delivery event; queue endpoints enqueue every message, each Push
// waking at most one waiter.
func (d *DTU) deliverVec(ep int, v *vecMeta) {
	e := d.eps[ep].recv
	if e == nil || e.used >= e.slots {
		d.stats.Lost++
		d.fabric.net.CountLost()
		d.fabric.dropVec(v)
		return
	}
	msgs := v.msgs
	e.used++
	d.stats.Received += uint64(len(msgs))
	d.stats.VecDeliveries++
	if e.vecHandler != nil {
		e.vecHandler(msgs)
		return
	}
	if e.handler != nil {
		for _, m := range msgs {
			e.handler(m)
		}
		return
	}
	for _, m := range msgs {
		e.queue.Push(m)
	}
}

// Wait blocks the proc until a message is queued at receive endpoint ep and
// returns it. Like every DTU operation that takes the proc, it first settles
// what the proc owes (sim.Proc.Charge): the endpoint is other parties' state.
func (d *DTU) Wait(p *sim.Proc, ep int) *Message {
	checkEP(ep)
	e := &d.eps[ep]
	p.ParkOn(e)
	m, _ := e.recv.queue.TryPop()
	return m
}

// Ready is Wait's condition as a sim.Waiter: the endpoint's queue is ready
// (sim.Queue.Ready). What kind of endpoint this is, like the rest of its
// state, is read once the proc's time has passed — an endpoint invalidated
// while the proc waited is one it may no longer wait on.
func (e *endpoint) Ready(p *sim.Proc) bool {
	r := e.recv
	if r == nil {
		panic("dtu: Wait on non-recv endpoint")
	}
	return r.queue.Ready(p)
}

// Reply frees msg's slot and sends a reply back to the sender's reply
// endpoint, returning the sender's credit along with it. msg is released.
func (d *DTU) Reply(msg *Message, payload any, size int) {
	restore := d.free(msg, "Reply")
	f := d.fabric
	if msg.SrcEP < 0 && msg.ReplyEP < 0 {
		// EP-less sender (SendVecTo) and nowhere to deliver the payload:
		// there is no credit to return, so sending anything would be pure
		// wire noise.
		f.release(msg)
		return
	}
	r := f.newMessage()
	r.SrcPE, r.SrcEP, r.ReplyEP = d.pe, int(msg.dstEP), -1
	r.Payload, r.Size = payload, size
	r.dstDTU, r.dstEP, r.creditEP = f.dtus[msg.SrcPE], int16(msg.ReplyEP), -1
	if restore {
		r.creditEP = int16(msg.SrcEP)
	}
	f.release(msg)
	f.transmit(d.pe, size+headerBytes, r)
}

// Ack frees msg's slot without a payload reply; the sender's credit is
// returned by a (zero-byte) credit message. Messages from an EP-less
// coalesced vector (SendVecTo) consumed no send credit, so acking them
// sends nothing — the ack degenerates to Free. msg is released.
func (d *DTU) Ack(msg *Message) {
	restore := d.free(msg, "Ack")
	f := d.fabric
	if msg.SrcEP < 0 {
		f.release(msg)
		return
	}
	c := f.newMessage()
	c.dstDTU, c.dstEP, c.creditEP = f.dtus[msg.SrcPE], -1, -1
	if restore {
		c.creditEP = int16(msg.SrcEP)
	}
	f.release(msg)
	f.transmit(d.pe, headerBytes, c)
}

// Free releases msg and its slot without any message back to the sender. It
// is for privileged consumers (the kernels) whose flow control lives above
// the DTU: returning a credit for an EP-less SendVecTo transfer would be
// meaningless traffic.
func (d *DTU) Free(msg *Message) {
	d.free(msg, "Free")
	d.fabric.release(msg)
}

// free gives up msg's hold on its slot and reports whether that emptied
// the slot (always, except for a vector sibling that is not the last). The
// caller releases msg once it has read what it needs.
func (d *DTU) free(msg *Message, op string) bool {
	if msg.freed {
		panic("dtu: message freed twice")
	}
	if msg.dstDTU != d {
		panic("dtu: " + op + " on foreign message")
	}
	if v := msg.vec; v != nil {
		v.remaining--
		if v.remaining > 0 {
			return false // siblings still hold the shared slot
		}
		d.fabric.releaseVec(v)
	}
	if r := d.eps[msg.dstEP].recv; r != nil && r.used > 0 {
		r.used--
	}
	return true
}

func (d *DTU) restoreCredit(ep int) {
	e := &d.eps[ep]
	if e.kind == EpSend && e.credits < e.maxCredits {
		e.credits++
	}
}

// remote memory ----------------------------------------------------------

// CheckMem checks an access of size bytes at offset off through memory
// endpoint ep, needing need: the endpoint must grant need, and the access
// must lie inside its window and inside the memory its target PE declared
// (Fabric.Add). It takes no time; moving the data is core.VPE.Transfer's.
func (d *DTU) CheckMem(ep int, off, size uint64, need Perm) error {
	checkEP(ep)
	e := &d.eps[ep]
	if e.kind != EpMem {
		return ErrBadEndpoint
	}
	if e.perm&need != need {
		return ErrNoPerm
	}
	if end := off + size; end > e.memSize || end < off || e.memOff+end > uint64(d.fabric.dtus[e.memPE].memCap) {
		return ErrOutOfBounds
	}
	return nil
}
