package core

import (
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Inter-kernel calls (paper §4.1): kernels communicate via messages over
// the NoC, adhering to a messaging protocol with per-pair FIFO ordering
// (guaranteed by internal/noc) and a bounded number of in-flight messages
// per kernel pair, so that the receiver's DTU message slots can never
// overflow. Replies travel in slots reserved by the request (as in the M3
// DTU design), so only requests count against the in-flight limit.

// inflightTo returns the in-flight semaphore for requests to kernel dst,
// created lazily in its dense per-kernel slot.
func (k *Kernel) inflightTo(dst int) *sim.Semaphore {
	s := k.inflight[dst]
	if s == nil {
		s = sim.NewSemaphore(k.sys.Eng, MaxInflight)
		k.inflight[dst] = s
	}
	return s
}

// nextSeq mints a request sequence number.
func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

// wireKind says what an ikcWire does when it arrives.
type wireKind uint8

const (
	wireRequest wireKind = iota // hand req to the receiving kernel
	wireReply                   // hand rep to the receiving kernel
	wireCredit                  // return one in-flight credit to the receiving kernel
	wireCompose                 // an event-context reply is composed: put it on the wire
)

// wireBytes is the wire size of each kind that crosses the NoC.
var wireBytes = [...]int{wireRequest: ikcMsgBytes, wireReply: ikcRepBytes}

// ikcWire is one direct (envelope-less) inter-kernel leg in flight. Like a
// dtu.Message it is its own delivery event and is recycled, through
// System.wires: a leg the fabric drops goes straight back, one it
// duplicates is released by its second arrival. Nobody holds a wire record
// past its arrival, so unlike a duplicated message it needs no copy. The
// list is shared by all kernels; a simulation runs on one goroutine.
type ikcWire struct {
	kind     wireKind
	dups     uint8
	from, to *Kernel
	req      *ikcRequest
	rep      *ikcReply
	arrive   func() // onArrive, bound once
}

// wire takes a record off the free list (or makes one) for a leg from k.
func (k *Kernel) wire(kind wireKind, to *Kernel) *ikcWire {
	s := k.sys
	var w *ikcWire
	if n := len(s.wires); n > 0 {
		w = s.wires[n-1]
		s.wires = s.wires[:n-1]
	} else {
		w = &ikcWire{}
		w.arrive = w.onArrive
	}
	w.kind, w.from, w.to = kind, k, to
	return w
}

func (w *ikcWire) release() {
	s := w.from.sys
	*w = ikcWire{arrive: w.arrive}
	s.wires = append(s.wires, w)
}

// send puts w on the NoC.
func (w *ikcWire) send() {
	switch w.from.sys.Net.Send(w.from.pe, w.to.pe, wireBytes[w.kind], w.arrive) {
	case 0:
		w.release()
	case 2:
		w.dups = 1
	}
}

// onArrive is w's delivery event (event context at the receiving kernel,
// or at the sender for wireCompose). The record is released before the
// payload is handed on: what runs below may send, and so reuse it.
func (w *ikcWire) onArrive() {
	if w.kind == wireCompose {
		w.kind = wireReply
		w.send()
		return
	}
	kind, from, to, req, rep := w.kind, w.from, w.to, w.req, w.rep
	if w.dups > 0 {
		w.dups--
	} else {
		w.release()
	}
	switch kind {
	case wireRequest:
		to.recvRequest(req)
	case wireReply:
		to.recvReply(rep)
	case wireCredit:
		to.creditBack(from.id)
	}
}

// sendRequest puts req on the wire to kernel dk as a direct message.
func (k *Kernel) sendRequest(dk *Kernel, req *ikcRequest) {
	w := k.wire(wireRequest, dk)
	w.req = req
	w.send()
}

// sendReply puts rep on the wire to kernel dk as a direct message.
func (k *Kernel) sendReply(dk *Kernel, rep *ikcReply) {
	w := k.wire(wireReply, dk)
	w.rep = rep
	w.send()
}

// stamp is the opening every request shares: the compose cost — the last
// term before a send, so everything owed elapses with it — then the sequence
// number, sender and incarnation. answered says somebody may wait for the
// reply (always, except a notification on the lossless fabric): its future
// then goes into pending, and dead reports that dst exhausted its retry
// budget earlier, so the future already holds ErrPeerDead and nothing is to
// be queued or sent (degraded mode).
func (k *Kernel) stamp(p *sim.Proc, dst int, req *ikcRequest, answered bool) (fut *sim.Future[*ikcReply], dead bool) {
	if dst == k.id {
		panic("core: inter-kernel call to self")
	}
	k.exec(p, k.sys.Cost.IKCCompose)
	req.Seq = k.nextSeq()
	req.From = k.id
	req.Inc = k.incarnation
	if !answered {
		return nil, false
	}
	fut = sim.NewFuture[*ikcReply](k.sys.Eng)
	k.pending[req.Seq] = fut
	if k.peerDead(dst) {
		k.rt.failFast(req.Seq, dst)
		return fut, true
	}
	return fut, false
}

// post sends a stamped request to kernel dst as a direct message. The caller
// holds the CPU token; the in-flight slot is acquired at a preemption point
// (the CPU is released while waiting for one) — except on a revoke thread,
// which never waits (DESIGN.md "Deadlock freedom of revocation"): its
// forward joins dst's deferred FIFO instead and leaves with the next credit
// that comes back (creditBack).
func (k *Kernel) post(p *sim.Proc, dst int, req *ikcRequest) {
	k.stats.IKCSent++
	sem := k.inflightTo(dst)
	if !sem.TryAcquire() {
		if k.holder.pl == k.revokePool {
			if k.deferred == nil {
				k.deferred = make([]sim.FIFO[*ikcRequest], len(k.inflight))
			}
			k.deferred[dst].Push(req)
			return
		}
		k.pause(p, sem)
	}
	k.transmit(dst, req)
}

// transmit puts a request that holds a credit on the wire to kernel dst.
func (k *Kernel) transmit(dst int, req *ikcRequest) {
	k.sendRequest(k.sys.kernels[dst], req)
	if k.rt != nil {
		k.rt.track(dst, []*ikcRequest{req}, false, req.Kind)
	}
}

// creditBack returns one in-flight credit toward dst — at pickup (wireCredit)
// or, in reliable mode, when a transmission resolves or aborts. A deferred
// forward takes it first and leaves now; only then may a parked thread have
// it. Nothing is sent to a peer declared dead (markDead fails what waits).
func (k *Kernel) creditBack(dst int) {
	if dst < len(k.deferred) && k.deferred[dst].Len() > 0 && !k.peerDead(dst) {
		k.transmit(dst, k.deferred[dst].Pop())
		return
	}
	k.inflightTo(dst).Release()
}

// failDeferred completes the forwards deferred toward dst with ErrPeerDead
// without ever putting them on the wire; their completions record the orphan
// fixes, as for any failed revoke.
func (k *Kernel) failDeferred(dst int) {
	for dst < len(k.deferred) && k.deferred[dst].Len() > 0 {
		k.rt.failFast(k.deferred[dst].Pop().Seq, dst)
	}
}

// ikSend transmits a request to kernel dst. The request is matched with a
// reply via its sequence number; the returned future completes when the
// reply arrives.
func (k *Kernel) ikSend(p *sim.Proc, dst int, req *ikcRequest) *sim.Future[*ikcReply] {
	fut, dead := k.stamp(p, dst, req, true)
	if !dead {
		k.post(p, dst, req)
	}
	return fut
}

// ikSubmit hands a request to the unified transport: kinds the batching
// policy covers join a per-destination aggregation queue (transport.go) and
// travel in a coalesced envelope; everything else is a direct ikSend. With
// batching disabled this is exactly ikSend.
func (k *Kernel) ikSubmit(p *sim.Proc, dst int, req *ikcRequest) *sim.Future[*ikcReply] {
	if k.xport.batches(req.Kind) {
		return k.xport.enqueue(p, dst, req)
	}
	return k.ikSend(p, dst, req)
}

// ikCall performs a blocking inter-kernel call: submit the request to the
// transport, release the CPU (preemption point), wait for the reply.
func (k *Kernel) ikCall(p *sim.Proc, dst int, req *ikcRequest) *ikcReply {
	fut := k.ikSubmit(p, dst, req)
	rep := blockOn(k, p, fut)
	delete(k.pending, req.Seq)
	return rep
}

// ikNotify sends a one-way notification (e.g. orphan unlink). It consumes
// an in-flight slot like any request but nobody waits for a reply; the
// receiver must not send one. In reliable mode the receiver *does* answer
// with an empty ack (see dispatchRequest): loss of a notification must be
// observable so it can be retransmitted and its credit returned, and the
// ack — completing a future nobody waits on — is what resolves the
// transmission. The ack's future is returned so callers can observe a
// degraded outcome (ErrPeerDead) without blocking on it; in baseline
// lossless mode there is no ack and the result is nil.
func (k *Kernel) ikNotify(p *sim.Proc, dst int, req *ikcRequest) *sim.Future[*ikcReply] {
	fut, dead := k.stamp(p, dst, req, k.reliable())
	if !dead {
		k.post(p, dst, req)
	}
	return fut
}

// recvRequest runs at the receiving kernel when a request message arrives
// (event context). Revoke requests go to the bounded revoke pool (at most
// two threads, the paper's DoS defense); everything else to the general
// inter-kernel pool.
func (k *Kernel) recvRequest(req *ikcRequest) {
	k.stats.IKCReceived++
	j := job{kind: jobRequest, subj: req}
	if req.Kind == ikcRevoke || req.Kind == ikcRevokeBatch {
		k.revokePool.submit(j)
	} else {
		k.ikcPool.submit(j)
	}
}

// handleRequest picks one direct request up on a kernel thread (CPU held).
func (k *Kernel) handleRequest(p *sim.Proc, req *ikcRequest) {
	if !k.reliable() {
		// Picking the message up frees its slot: return the in-flight
		// credit to the sender. In reliable mode the credit instead
		// returns when the sender's transmission resolves (onReply /
		// abort in reliability.go) — a lost request must not leak it.
		k.returnCredit(req.From)
	}
	// Owed on the lossless path, where the two gates below are no-ops and the
	// handler starts in the capability store; with the reliable layer on,
	// the gates settle before they read its state.
	k.charge(p, k.sys.Cost.IKCDispatch)
	if k.admitRequest(p, req) && k.dedupCheck(p, req) {
		k.dispatchRequest(p, req)
	}
	// A handler that answers later (revocation) may still owe time here; it
	// elapses in the thread's park, before the epilogue flushes the reply sink.
}

// returnCredit gives the in-flight credit for one picked-up wire message
// back to its sending kernel, instantly: a zero-delay event of its own, no
// credit message on the NoC (DESIGN.md, "Zero-latency edges of the kernel
// model").
func (k *Kernel) returnCredit(from int) {
	k.sys.Eng.Schedule(0, k.wire(wireCredit, k.sys.kernels[from]).arrive)
}

// recvBatch runs at the receiving kernel when a coalesced envelope arrives
// at its batch endpoint (event context, one delivery event for the whole
// vector). The envelope counts as one received wire message, occupies one
// in-flight slot of its sender and is picked up by a single kernel thread
// (handleBatch).
func (k *Kernel) recvBatch(msgs []*dtu.Message) {
	k.stats.IKCReceived++
	first := msgs[0].Payload.(*ikcRequest)
	for _, m := range msgs[1:] {
		if req := m.Payload.(*ikcRequest); req.From != first.From || req.Kind != first.Kind {
			panic("core: mixed envelope — batches must carry one kind from one kernel")
		}
	}
	k.ikcPool.submit(job{kind: jobBatch, subj: msgs[0]})
}

// handleBatch picks an envelope up on a kernel thread (CPU held): it frees
// the shared receive slot, returns the in-flight credit and dispatches the
// carried requests in order, collecting them in the thread's scratch reqs
// (returned for reuse) because the messages are gone once freed. Handlers
// return their replies to the transport's reply sink, and they may block at
// their usual preemption points — the batch thread simply resumes with the
// next request afterwards, serializing the batch the way the receiving
// kernel's single CPU would anyway. When the last request has been
// dispatched the thread flushes the reply queue feeding the envelope's
// sender (the sink's dispatch barrier), so the batch is normally answered
// by a single reply envelope and no reply waits on an idle timer.
func (k *Kernel) handleBatch(p *sim.Proc, msgs []*dtu.Message, reqs []*ikcRequest) []*ikcRequest {
	for _, m := range msgs {
		reqs = append(reqs, m.Payload.(*ikcRequest))
		k.dtu.Free(m)
	}
	if !k.reliable() {
		k.returnCredit(reqs[0].From)
	}
	for _, req := range reqs {
		k.exec(p, k.sys.Cost.IKCDispatch)
		if k.admitRequest(p, req) && k.dedupCheck(p, req) {
			k.dispatchRequest(p, req)
		}
	}
	return reqs
}

// dispatchRequest routes a request to its handler and hands the returned
// result to the reply path. Handlers run on a kernel thread with the CPU
// held and *return* their reply instead of composing wire messages
// themselves — the transport decides whether it leaves as a direct message
// or joins a reply envelope. A nil result means no reply now: notifications
// are never answered, and the continuation-based revocation paths answer
// later via ikReplyAsync.
func (k *Kernel) dispatchRequest(p *sim.Proc, req *ikcRequest) {
	var rep *ikcReply
	switch req.Kind {
	case ikcObtain, ikcSession, ikcObtainSess:
		r := k.grant(p, req, true)
		rep = &r
	case ikcDelegate, ikcDelegateSess:
		r := k.prepareDelegate(p, req)
		rep = &r
	case ikcDelegateAck:
		rep = k.handleDelegateAck(p, req)
	case ikcRevoke, ikcRevokeBatch:
		rep = k.handleRevokeReq(p, req)
	case ikcUnlinkChild:
		k.handleUnlinkChild(p, req) // notification: nobody to answer
		if k.reliable() {
			// ...except in reliable mode, where an empty ack makes the
			// notification's loss observable (see ikNotify).
			rep = &ikcReply{}
		}
	case ikcRejoin:
		rep = k.handleRejoin(p, req)
	default:
		panic("core: unknown inter-kernel request kind")
	}
	if rep != nil {
		k.ikReply(p, req, rep)
	}
}

// ikReply sends the reply for req back to its sender, routing it through
// the reply sink when the policy batches this operation family (it then
// rides a coalesced envelope instead of its own wire message). The caller
// must hold the CPU token; the compose cost models marshalling the reply —
// into a message or into the envelope buffer. Direct replies travel in
// slots reserved by the request and bypass the in-flight limit.
func (k *Kernel) ikReply(p *sim.Proc, req *ikcRequest, rep *ikcReply) {
	k.exec(p, k.sys.Cost.IKCCompose)
	k.answers(req, rep)
	if k.xport.batchesReply(req.Kind) {
		k.xport.enqueueReply(req.From, classOf(req.Kind), rep)
		return
	}
	k.stats.IKCRepSent++
	k.sendReply(k.sys.kernels[req.From], rep)
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
func (k *Kernel) ikReplyAsync(req *ikcRequest, rep *ikcReply) {
	k.answers(req, rep)
	k.stats.Busy += k.sys.Cost.IKCCompose
	k.stats.IKCRepSent++
	w := k.wire(wireCompose, k.sys.kernels[req.From])
	w.rep = rep
	k.sys.Eng.Schedule(k.sys.Cost.IKCCompose, w.arrive)
}

// answers makes rep the reply to req, and caches it for a duplicate of req.
func (k *Kernel) answers(req *ikcRequest, rep *ikcReply) {
	rep.Seq, rep.From, rep.Inc = req.Seq, k.id, req.Inc
	k.cacheReply(req.From, req.Seq, rep)
}

// recvReplyVec runs at the requesting kernel when a reply envelope arrives
// at its reply endpoint (event context, one delivery event for the whole
// vector). Like direct replies, the demux costs no kernel thread: each
// carried reply frees its share of the slot and completes its pending
// future, in envelope (= enqueue) order, so requesters observe the same
// reply order the answering kernel produced.
func (k *Kernel) recvReplyVec(msgs []*dtu.Message) {
	for _, m := range msgs {
		rep := m.Payload.(*ikcReply)
		k.dtu.Free(m)
		k.recvReply(rep)
	}
}

// recvReply completes the pending future for a reply (event context). A
// reply for an unknown sequence number is late or duplicated: its request
// was retransmitted and already answered, or the peer was declared dead
// and the future completed with an error reply. It is counted, not fatal
// — on the lossless baseline the counter provably stays zero (every
// reply matches a pending future), so flags-off traces are unchanged.
func (k *Kernel) recvReply(rep *ikcReply) {
	if k.rt != nil && rep.Inc != 0 && rep.Inc != k.incarnation {
		// The reply echoes the incarnation that asked the question; this
		// kernel has since crashed and recovered, so the answer belongs to
		// the dead incarnation (its futures were already aborted at rejoin).
		k.stats.StaleIncarnation++
		return
	}
	fut := k.pending[rep.Seq]
	if fut == nil {
		k.stats.LateReplies++
		return
	}
	delete(k.pending, rep.Seq)
	if k.rt != nil {
		k.rt.onReply(rep.Seq)
	}
	fut.Complete(rep)
}
