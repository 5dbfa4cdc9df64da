package core

import (
	"repro/internal/ddl"
	"repro/internal/sim"
)

// Inter-kernel calls (paper §4.1): kernels communicate via messages over
// the NoC, adhering to a messaging protocol with per-pair FIFO ordering
// (guaranteed by internal/noc) and a bounded number of in-flight messages
// per kernel pair, so that the receiver's DTU message slots can never
// overflow. Replies travel in slots reserved by the request (as in the M3
// DTU design), so only requests count against the in-flight limit.

// peer is a kernel's IKC state toward one other kernel, created the first
// time the two talk (Kernel.peer) and held in Kernel.peers at the other
// kernel's id: everything the kernel keeps per pair, in one place, so every
// walk over it is a walk in kernel-id order.
type peer struct {
	// credits bounds the unprocessed requests toward the peer (MaxInflight,
	// paper §5.1); deferred holds the stamped forwards of revoke threads
	// that found no credit (post), sent by the next credit that comes back
	// (creditBack).
	credits  sim.Semaphore
	deferred sim.FIFO[*ikcRequest]
	// reqq are the request aggregation queues toward the peer, by kind, each
	// made on first use (only batched kinds get one, and none of them comes
	// after ikcDelegateSess); repq are the reply queues toward it, by class
	// (classNone's stays empty). See transport.go.
	reqq [ikcDelegateSess + 1]*sendQueue
	repq [classRevoke + 1][]ikcReply

	// Reliable mode only (reliability.go, rejoin.go). dead is this kernel's
	// verdict on the peer, sticky until the peer rejoins with a newer
	// incarnation; inc is the peer's highest incarnation observed, from 1.
	// live lists the transmissions toward the peer still tracked, in
	// first-send order. seen is the receiver's duplicate filter and reply
	// cache for requests from the peer, nil until the first is admitted.
	dead bool
	inc  uint32
	live []*xmitState
	seen *dedup
}

// peer returns k's record for kernel dst, creating it on first use.
func (k *Kernel) peer(dst int) *peer {
	pr := k.peers[dst]
	if pr == nil {
		pr = k.sys.peerRecs.New(k.sys.recBlock)
		*pr = peer{credits: *sim.NewSemaphore(MaxInflight), inc: 1}
		k.peers[dst] = pr
	}
	return pr
}

// awaited is what a kernel keeps per request that awaits its reply: the
// call's continuation, as data, and — once the reliable layer tracks the
// request on the wire — its transmission (nil before, and always on the
// lossless fabric). The continuation is one of
//
//   - t: the thread parked for the reply in its slot (ikCall), which holds
//     the request's reference itself;
//   - rs and req: a revoke forward, whose reply counts toward rs and whose
//     failure records an orphan fix for each target of req;
//   - req alone: a reliable-mode unlink, whose failed ack records its fix;
//   - nothing: nobody waits.
//
// A fire-and-forget call hands its reference to req, and complete, which
// runs the continuation, drops it.
type awaited struct {
	t   *kthread
	rs  *revState
	req *ikcRequest
	xm  *xmitState
}

// awaiting returns what waits for the reply to request seq; nothing if the
// request is not pending.
func (k *Kernel) awaiting(seq uint64) awaited {
	a, _ := k.pending.Get(ddl.Key(seq))
	return a
}

// complete runs the continuation of a call whose entry just left pending,
// with its reply: a real one (recvReply) or ErrPeerDead (failPending). It
// runs in event context, or inline where a request to a dead peer fails
// fast. A parked thread gets the reply in its slot and one wake-up; a revoke
// forward's reply goes to the completion pool, after an unreachable owner's
// orphan fixes are recorded.
func (k *Kernel) complete(a awaited, rep *ikcReply) {
	switch {
	case a.t != nil:
		a.t.reply.fill(rep)
	case a.req != nil:
		if rep.Err == ErrPeerDead {
			k.recordOrphanFixes(rep.From, a.req)
		}
		a.req.drop(k.sys)
		if a.rs != nil { // one child revocation done: account it on the CPU
			k.completionPool.submit(job{kind: jobRevokeDone, subj: a.rs})
		}
	}
}

// request takes a released request record (or makes one), fills it with r
// and hands back one reference, the caller's. The record keeps its own key
// list, emptied, for a batch to fill (forwardBatches).
func (k *Kernel) request(r ikcRequest) *ikcRequest {
	req := k.sys.reqs.New(k.sys.recBlock)
	r.Keys = req.Keys
	*req = r
	req.refs = 1
	return req
}

// hold takes one more reference to req.
func (req *ikcRequest) hold() *ikcRequest {
	req.refs++
	return req
}

// drop gives one reference to req up; the last zeroes the record, so a
// holder that missed its hold reads sequence number 0, which no request
// has, and hands it back to s.reqs. The key list keeps its array for the
// record's next batch: until this drop a receiver, a duplicate or a resend
// may still read the keys, so the array is reused only after it.
func (req *ikcRequest) drop(s *System) {
	req.refs--
	switch {
	case req.refs < 0:
		panic("core: an inter-kernel request dropped more often than held")
	case req.refs == 0:
		*req = ikcRequest{Keys: req.Keys[:0]}
		s.reqs.Put(req)
	}
}

// appendHeld appends reqs to dst, a request list of a leg or a thread, and
// holds a reference to each.
func (s *System) appendHeld(dst, reqs []*ikcRequest) []*ikcRequest {
	dst = s.reqRoom(dst, len(reqs))
	for _, req := range reqs {
		dst = append(dst, req.hold())
	}
	return dst
}

// The transport's lists — the requests of an aggregation queue, a
// transmission, a leg or a thread's pickup; the replies of a reply queue or
// a leg; a peer's live transmissions — grow in runs of listRun entries at
// least, from the machine's blocks of System.recBlock runs (reqRoom,
// repRoom, liveRoom), and their owners keep what they grew to: a queue, a
// peer and a thread their own, a recycled leg or transmission record its. A
// warm machine's transport takes no storage; an envelope carries a handful
// of requests.
const listRun = 4

// queueBlock is how many elements one block of the machine's queue arrays
// holds past their boot-time runs (layout): recBlock runs of listRun. A
// kernel pool's jobs and idle threads and a peer's credit waiters grow into
// doubling runs of such blocks (sim.FIFO.Reserve). Most queues of a machine
// never need one: a queue holds its first element in its own record.
func (s *System) queueBlock() int { return listRun * s.recBlock }

// reqRoom returns the request list l with room for n more.
func (s *System) reqRoom(l []*ikcRequest, n int) []*ikcRequest {
	return s.reqLists.Grow(l, n, listRun, listRun*s.recBlock)
}

// repRoom returns the reply list l with room for n more.
func (s *System) repRoom(l []ikcReply, n int) []ikcReply {
	return s.repLists.Grow(l, n, listRun, listRun*s.recBlock)
}

// liveRoom returns the live list l with room for one more.
func (s *System) liveRoom(l []*xmitState) []*xmitState {
	return s.liveLists.Grow(l, 1, listRun, listRun*s.recBlock)
}

// dropAll drops one reference to each of reqs.
func dropAll(s *System, reqs []*ikcRequest) {
	for _, req := range reqs {
		req.drop(s)
	}
}

// nextSeq mints a request sequence number.
func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

// wireKind says what an ikcWire carries.
type wireKind uint8

const (
	wireRequest wireKind = iota // requests for the receiving kernel
	wireReply                   // replies for the receiving kernel
	wireCredit                  // one in-flight credit back to the receiving kernel, for the leg led by request seq
)

// ikcWire is one inter-kernel leg in flight: a direct request or reply, an
// envelope of N requests or N replies (one NoC transfer: 32 B of header plus
// the batched size of each payload), or a returned credit. Like a dtu.Message
// it is its own delivery event and is recycled, through System.wires: a leg
// the fabric drops goes straight back, one it duplicates is released by its
// second arrival. Every leg is released at its arrival but a request
// envelope, which waits for the kernel thread that picks it up (pickUp); a
// duplicated envelope therefore arrives the first time as a copy of its own.
// A request leg holds a reference to each request it carries, which release
// drops, so it may carry pointers: the sender's records stay put however
// long the leg is in flight. A fresh record backs its payload slices with
// the one-element arrays inside it, so a direct leg costs no slice; an
// envelope grows them once and keeps them. The recycler is shared by all
// kernels; a simulation runs on one goroutine.
type ikcWire struct {
	kind     wireKind
	env      bool // an envelope, sized per payload; else one direct leg
	compose  bool // the leg is still being composed: put it on the wire when it fires
	dups     uint8
	from, to *Kernel
	seq      uint64 // a credit leg's
	reqs     []*ikcRequest
	reps     []ikcReply
	req1     [1]*ikcRequest
	rep1     [1]ikcReply
}

// wire takes a released record (or makes one) for a leg from k.
func (k *Kernel) wire(kind wireKind, to *Kernel) *ikcWire {
	w := k.sys.wires.New(1)
	if w.reqs == nil {
		w.reqs, w.reps = w.req1[:0], w.rep1[:0]
	}
	w.kind, w.from, w.to = kind, k, to
	return w
}

func (w *ikcWire) release() {
	s := w.from.sys
	dropAll(s, w.reqs)
	clear(w.reqs)
	clear(w.reps)
	*w = ikcWire{reqs: w.reqs[:0], reps: w.reps[:0]}
	s.wires.Put(w)
}

// done releases w at an arrival, unless a duplicate of it is still to come.
func (w *ikcWire) done() {
	if w.dups > 0 {
		w.dups--
	} else {
		w.release()
	}
}

// bytes is w's size on the NoC.
func (w *ikcWire) bytes() int {
	switch {
	case w.kind == wireRequest && w.env:
		return ikcEnvelopeBytes + len(w.reqs)*ikcBatchedReqBytes
	case w.kind == wireRequest:
		return ikcMsgBytes
	case w.env:
		return ikcEnvelopeBytes + len(w.reps)*ikcBatchedRepBytes
	default:
		return ikcRepBytes
	}
}

// send puts w on the NoC.
func (w *ikcWire) send() {
	switch w.from.sys.Net.Post(w.from.pe, w.to.pe, w.bytes(), w) {
	case 0:
		w.release()
	case 2:
		w.dups = 1
	}
}

// Fire is w's delivery event (event context at the receiving kernel, or
// at the sender while the leg is composed). A direct request's record is
// released before the request is handed on — what runs below may send, and
// so reuse it — and the job takes its own reference first; a credit leg's
// sequence number is read first for the same reason. Replies, direct or in
// an envelope, complete their calls in order — the order the answering
// kernel produced them — and cost no thread.
func (w *ikcWire) Fire() {
	switch {
	case w.compose:
		w.compose = false
		w.send()
	case w.kind == wireRequest && w.env:
		env := w
		if w.dups > 0 {
			w.dups--
			env = w.from.wire(wireRequest, w.to)
			env.env = true
			env.reqs = w.from.sys.appendHeld(env.reqs, w.reqs)
		}
		env.to.recvRequest(env.reqs[0].Kind, env)
	case w.kind == wireRequest:
		to, req := w.to, w.reqs[0].hold()
		w.done()
		to.recvRequest(req.Kind, req)
	case w.kind == wireReply:
		for i := range w.reps {
			w.to.recvReply(&w.reps[i])
		}
		w.done()
	default:
		from, to, seq := w.from, w.to, w.seq
		w.done()
		to.onCredit(from.id, seq)
	}
}

// sendRequest puts req on the wire to kernel dk as a direct message.
func (k *Kernel) sendRequest(dk *Kernel, req *ikcRequest) {
	w := k.wire(wireRequest, dk)
	w.reqs = append(w.reqs, req.hold())
	w.send()
}

// sendEnvelope puts the requests of reqs that pick selects (bit i for
// reqs[i]) — N requests of one kind for kernel dst — on the wire as one
// envelope: one NoC transfer, one delivery event and one kernel-thread
// pickup at the destination. The requests keep their individual sequence
// numbers, so each is answered by its own reply.
func (k *Kernel) sendEnvelope(dst int, reqs []*ikcRequest, pick uint32) {
	w := k.wire(wireRequest, k.sys.kernels[dst])
	w.env = true
	w.reqs = k.sys.reqRoom(w.reqs, len(reqs))
	for i, req := range reqs {
		if pick&(1<<i) != 0 {
			w.reqs = append(w.reqs, req.hold())
		}
	}
	w.send()
}

// sendReply puts rep on the wire to kernel dk as a direct message.
func (k *Kernel) sendReply(dk *Kernel, rep *ikcReply) {
	w := k.wire(wireReply, dk)
	w.reps = append(w.reps, *rep)
	w.send()
}

// composeReplies puts reps on the wire to kernel dk once their compose cost
// has elapsed — one direct reply, or an envelope of several — for a sender
// without a thread to charge: the cost is busy time of the kernel and a delay
// before the leg leaves (ikReplyAsync, flushReplies).
func (k *Kernel) composeReplies(dk *Kernel, reps ...ikcReply) {
	k.stats.Busy += k.sys.Cost.IKCCompose
	w := k.wire(wireReply, dk)
	w.env, w.compose = len(reps) > 1, true
	w.reps = append(k.sys.repRoom(w.reps, len(reps)), reps...)
	k.sys.Eng.Post(k.sys.Cost.IKCCompose, w)
}

// stamp is the opening every request shares: the compose cost — the last
// term before a send, so everything owed elapses with it — then the sequence
// number and sender; the incarnation is stamped when the request first goes
// on the wire (transmit, flushLocked). answered says a reply will come
// (always, except for a notification on the lossless fabric): a then goes
// into pending as the call's continuation, and dead reports that dst
// exhausted its retry budget earlier, so the call has already completed
// with ErrPeerDead and nothing is to be queued or sent (degraded mode).
func (k *Kernel) stamp(p *sim.Proc, dst int, req *ikcRequest, a awaited, answered bool) (dead bool) {
	if dst == k.id {
		panic("core: inter-kernel call to self")
	}
	k.exec(p, k.sys.Cost.IKCCompose)
	req.Seq = k.nextSeq()
	req.From = k.id
	if !answered {
		return false
	}
	k.pending.Put(ddl.Key(req.Seq), a)
	if k.peerDead(dst) {
		k.failFast(req.Seq, dst)
		return true
	}
	return false
}

// post sends a stamped request to kernel dst as a direct message. The caller
// holds the CPU token; the in-flight slot is acquired at a preemption point
// (the CPU is released while waiting for one) — except on a revoke thread,
// which never waits (DESIGN.md "Deadlock freedom of revocation"): its
// forward joins dst's deferred FIFO instead, which holds a reference to it,
// and leaves with the next credit that comes back (creditBack).
func (k *Kernel) post(p *sim.Proc, dst int, req *ikcRequest) {
	k.stats.IKCSent++
	pr := k.peer(dst)
	if !pr.credits.TryAcquire() {
		if k.holder.pl == &k.revokePool {
			pr.deferred.Push(req.hold())
			return
		}
		k.awaitCredit(p, pr)
	}
	k.transmit(dst, req)
}

// awaitCredit parks the caller, which holds the CPU token and found no
// credit toward the peer pr, until one comes back: a preemption point. The
// peer's waiter list grows from the machine's blocks (queueBlock).
func (k *Kernel) awaitCredit(p *sim.Proc, pr *peer) {
	pr.credits.Reserve(&k.sys.procs, 1, k.sys.queueBlock())
	k.pause(p, &pr.credits)
}

// transmit puts a request that holds a credit on the wire to kernel dst,
// stamped with the incarnation it leaves in. In reliable mode its
// transmission record holds a reference to it.
func (k *Kernel) transmit(dst int, req *ikcRequest) {
	req.Inc, req.ToInc = k.incarnation, k.peers[dst].inc
	k.sendRequest(k.sys.kernels[dst], req)
	if k.reliable {
		xm := k.newXmit()
		xm.reqs = append(k.sys.reqRoom(xm.reqs, 1), req.hold())
		k.track(dst, xm)
	}
}

// onCredit takes back the credit of a leg dst picked up, seq its first
// request (event context). In reliable mode a leg may be picked up twice — a
// duplicate, a retransmit — or after its transmission aborted, so the credit
// counts once per transmission, and only while it is live.
func (k *Kernel) onCredit(dst int, seq uint64) {
	if k.reliable {
		xm := k.awaiting(seq).xm
		if xm == nil || xm.done || xm.credited {
			return
		}
		xm.credited = true
	}
	k.creditBack(dst)
}

// creditBack returns one in-flight credit toward dst — at pickup (onCredit)
// or when a transmission aborts before it was picked up. A deferred forward
// takes it first and leaves now; only then may a parked thread have it.
// Nothing is sent to a peer declared dead (markDead fails what waits).
func (k *Kernel) creditBack(dst int) {
	pr := k.peers[dst]
	if pr.deferred.Len() > 0 && !pr.dead {
		req := pr.deferred.Pop()
		k.transmit(dst, req)
		req.drop(k.sys)
		return
	}
	pr.credits.Release()
}

// failDeferred completes the forwards deferred toward dst with ErrPeerDead
// without ever putting them on the wire; their completions record the orphan
// fixes, as for any failed revoke.
func (k *Kernel) failDeferred(dst int) {
	for pr := k.peers[dst]; pr != nil && pr.deferred.Len() > 0; {
		req := pr.deferred.Pop()
		k.failFast(req.Seq, dst)
		req.drop(k.sys)
	}
}

// ikSend transmits a request to kernel dst as a direct message. The request
// is matched with its reply via its sequence number; the reply runs a, the
// call's continuation (complete).
func (k *Kernel) ikSend(p *sim.Proc, dst int, req *ikcRequest, a awaited) {
	if !k.stamp(p, dst, req, a, true) {
		k.post(p, dst, req)
	}
}

// ikSubmit hands a request to the unified transport: kinds the batching
// policy covers join a per-destination aggregation queue (transport.go) and
// travel in a coalesced envelope; everything else is a direct ikSend. With
// batching disabled this is exactly ikSend.
func (k *Kernel) ikSubmit(p *sim.Proc, dst int, req *ikcRequest, a awaited) {
	if k.batches(req.Kind) {
		k.enqueue(p, dst, req, a)
		return
	}
	k.ikSend(p, dst, req, a)
}

// ikCall performs a blocking inter-kernel call: make r a request record,
// submit it to the transport, release the CPU (preemption point) and wait
// for the reply in the calling thread's slot. The call holds the record's
// first reference until the reply is in.
func (k *Kernel) ikCall(p *sim.Proc, dst int, r ikcRequest) ikcReply {
	req := k.request(r)
	t := k.holder
	k.ikSubmit(p, dst, req, awaited{t: t})
	k.pause(p, &t.reply)
	req.drop(k.sys)
	return t.reply.take()
}

// notifyUnlink sends kernel dst the one-way notification that child is no
// longer a child of parent (an orphan unlink). It consumes an in-flight
// slot like any request but nobody waits for a reply; the receiver must not
// send one. In reliable mode the receiver *does* answer with an empty ack
// (see dispatchRequest): loss of a notification must be observable so it
// can be retransmitted and its credit returned, and the ack is what
// resolves the transmission. Its continuation is the request itself, so if
// dst is unreachable the orphan fix is recorded (complete) and the dangling
// link is removed when dst rejoins; in baseline lossless mode there is no
// ack and no entry, and the call drops its reference once it is posted.
func (k *Kernel) notifyUnlink(p *sim.Proc, dst int, parent, child ddl.Key) {
	req := k.request(ikcRequest{Kind: ikcUnlinkChild, Key: parent, Child: child})
	if !k.stamp(p, dst, req, awaited{req: req}, k.reliable) {
		k.post(p, dst, req)
	}
	if !k.reliable {
		req.drop(k.sys)
	}
}

// recvRequest runs at the receiving kernel when a request leg arrives (event
// context): subj is the direct request or the envelope's wire, kind what the
// leg carries. The leg counts as one received wire message and is picked up
// by one kernel thread (pickUp). Revoke requests go to the bounded revoke
// pool (at most two threads, the paper's DoS defense); everything else —
// every envelope among it — to the general inter-kernel pool.
func (k *Kernel) recvRequest(kind ikcKind, subj any) {
	k.stats.IKCReceived++
	j := job{kind: jobRequest, subj: subj}
	if kind == ikcRevoke || kind == ikcRevokeBatch {
		k.revokePool.submit(j)
	} else {
		k.ikcPool.submit(j)
	}
}

// pickUp picks a request leg up on a kernel thread (CPU held) and dispatches
// what it carries, in order. An envelope's requests move into the thread's
// scratch (returned for reuse), each with a reference of the job's, and its
// wire goes back to System.wires. The first request's sender and kind stand
// for the job from here on, copied into the thread's record: they name the
// reply queue the epilogue flushes, which runs after the job has dropped its
// references. Picking the leg up frees its slot,
// so the sender's in-flight credit returns now, on every fabric (a leg lost
// on the way is credited when its transmission aborts, reliability.go).
// Each request's dispatch is owed: on the lossless path the receive gate is
// a no-op and the handler starts in the capability store; with the reliable
// layer on, the gate settles before it reads its state. Handlers may block
// at their usual preemption points; the thread resumes with the next request
// afterwards, serializing an envelope the way the kernel's single CPU would
// anyway, and the epilogue's flush answers it with one reply envelope.
func (k *Kernel) pickUp(p *sim.Proc, t *kthread, scratch []*ikcRequest) []*ikcRequest {
	var direct [1]*ikcRequest
	reqs := direct[:]
	j := &t.job
	if w, ok := j.subj.(*ikcWire); ok {
		scratch = k.sys.appendHeld(scratch, w.reqs)
		w.release()
		reqs = scratch
	} else {
		direct[0] = j.subj.(*ikcRequest)
	}
	t.from, t.kind, j.subj = int32(reqs[0].From), reqs[0].Kind, nil
	k.returnCredit(reqs[0])
	for _, req := range reqs {
		k.charge(p, k.sys.Cost.IKCDispatch)
		if k.admit(p, req) {
			k.dispatchRequest(p, req)
		}
	}
	// A handler that answers later (revocation) may still owe time here; it
	// elapses in the thread's park, before the epilogue flushes the reply sink.
	dropAll(k.sys, reqs)
	clear(scratch)
	return scratch[:0]
}

// returnCredit gives the in-flight credit for one picked-up wire message,
// req its first request, back to its sending kernel, instantly: a zero-delay
// event of its own, no credit message on the NoC (DESIGN.md, "Zero-latency
// edges of the kernel model"). req's sequence number names the transmission
// the credit belongs to (onCredit).
func (k *Kernel) returnCredit(req *ikcRequest) {
	w := k.wire(wireCredit, k.sys.kernels[req.From])
	w.seq = req.Seq
	k.sys.Eng.Post(0, w)
}

// dispatchRequest routes a request to its handler and hands the returned
// result to the reply path. Handlers run on a kernel thread with the CPU
// held and *return* their reply, by value, instead of composing wire
// messages themselves — the transport decides whether it leaves as a direct
// message or joins a reply envelope. Two kinds may have no reply now:
// notifications are never answered, and a revocation whose subtree is not
// gone yet answers later via ikReplyAsync.
func (k *Kernel) dispatchRequest(p *sim.Proc, req *ikcRequest) {
	var rep ikcReply
	switch req.Kind {
	case ikcObtain, ikcSession, ikcObtainSess:
		rep = k.grant(p, req, true)
	case ikcDelegate, ikcDelegateSess:
		rep = k.prepareDelegate(p, req)
	case ikcDelegateAck:
		rep = k.handleDelegateAck(p, req)
	case ikcRevoke, ikcRevokeBatch:
		if !k.handleRevokeReq(p, req) {
			return
		}
	case ikcUnlinkChild:
		k.handleUnlinkChild(p, req) // notification: nobody to answer...
		if !k.reliable {
			return
		}
		// ...except in reliable mode, where an empty ack makes the
		// notification's loss observable (see notifyUnlink).
	case ikcRejoin:
		rep = k.handleRejoin(p, req)
	default:
		panic("core: unknown inter-kernel request kind")
	}
	k.ikReply(p, req, rep)
}

// ikReply sends the reply for req back to its sender, routing it through
// the reply sink when the policy batches this operation family (it then
// rides a reply envelope instead of its own wire message). The caller
// must hold the CPU token; the compose cost models marshalling the reply —
// into a message or into the envelope buffer. Direct replies travel in
// slots reserved by the request and bypass the in-flight limit.
func (k *Kernel) ikReply(p *sim.Proc, req *ikcRequest, rep ikcReply) {
	k.exec(p, k.sys.Cost.IKCCompose)
	k.answers(req, &rep)
	if k.batchesReply(req.Kind) {
		k.enqueueReply(req.From, classOf(req.Kind), rep)
		return
	}
	k.stats.IKCRepSent++
	k.sendReply(k.sys.kernels[req.From], &rep)
}

// ikReplyAsync sends a reply without a thread to charge (used by the
// continuation-based revocation, which completes when the last child's
// answer arrives rather than where the request was dispatched; its caller
// is a finishing revocation record, which runs settled). The compose cost is
// modeled as a delay before the message leaves. These replies never join
// reply envelopes, regardless of policy: a continuation fires long after any
// dispatch barrier has passed, so batching it could only park a revocation's
// completion — the event the initiator's syscall blocks on — on an idle
// window timer, trading latency-critical progress for a coalescing
// opportunity that barely exists (revocation already answers one reply per
// batched request).
// Keeping them direct also pins batched revocation of arbitrarily deep
// trees to its pre-sink event trace.
func (k *Kernel) ikReplyAsync(req *ikcRequest, rep ikcReply) {
	k.answers(req, &rep)
	k.stats.IKCRepSent++
	k.composeReplies(k.sys.kernels[req.From], rep)
}

// answers makes rep the reply to req, and caches a copy for a duplicate of
// req.
func (k *Kernel) answers(req *ikcRequest, rep *ikcReply) {
	rep.Seq, rep.From, rep.Inc = req.Seq, k.id, req.Inc
	k.cacheReply(req.From, rep)
}

// recvReply completes the call pending on a reply (event context). A reply
// for an unknown sequence number is late or duplicated: its request was
// retransmitted and already answered, or the peer was declared dead and the
// call completed with an error reply. It is counted, not fatal — on the
// lossless baseline the counter provably stays zero (every reply matches a
// pending call), so flags-off traces are unchanged.
func (k *Kernel) recvReply(rep *ikcReply) {
	if k.reliable && rep.Inc != 0 && rep.Inc != k.incarnation {
		// The reply echoes the incarnation that asked the question; this
		// kernel has since crashed and recovered, so the answer belongs to
		// the dead incarnation (its calls were already aborted at rejoin).
		k.stats.StaleIncarnation++
		return
	}
	a, ok := k.pending.Get(ddl.Key(rep.Seq))
	if !ok {
		k.stats.LateReplies++
		return
	}
	k.pending.Delete(ddl.Key(rep.Seq))
	if a.xm != nil {
		k.onReply(a.xm)
	}
	k.complete(a, rep)
}
