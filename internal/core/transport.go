package core

import "repro/internal/sim"

// The unified IKC transport (paper §4.3 + the §5.2 message-batching
// proposal, generalized). The paper implements batching only for tree
// revocation; related capability systems make aggregation a property of the
// transport instead, so every inter-kernel operation can ride it. This file
// hoists that idea out of revoke.go and makes the transport symmetric: a
// kernel's record for each destination (peer) holds one aggregation queue
// per request kind for the request direction AND one reply queue per class
// for the reply direction, under one policy that decides which operation
// families are batched; when queues flush is fixed:
//
//   - inline, when a queue reaches maxBatch (the enqueuing thread holds the
//     CPU and composes the envelope itself);
//   - for request queues, after the adaptive flush window closes: a timer
//     armed when a queue goes non-empty hands the flush to the kernel's
//     one-thread transmit pool, since every enqueuer is parked on its reply
//     by then;
//   - at protocol barriers: a batched revocation mark walk sends its batches
//     when it ends (revoke.go), preserving Algorithm 1's accounting, and
//     every request dispatch ends by flushing the reply queue feeding that
//     request's sender (flushReplies) — the reply direction needs no
//     timer at all, because a reply cannot outlive the dispatch that
//     produced it.
//
// A flushed batch travels as one ikcWire, the record every inter-kernel leg
// rides (ikc.go): one NoC transfer, one delivery event. A request envelope
// is picked up by one kernel thread (pickUp, the routine that picks up
// direct requests too); a reply envelope completes its calls in event
// context, exactly like a direct reply. An envelope of N requests is
// answered by one reply envelope.
//
// Correctness of the flush points: delaying a request or reply by at most
// the flush window is equivalent to a slower NoC — every protocol in
// exchange.go/service.go validates state at the receiver when the request
// is dispatched and re-validates at the sender when the reply arrives, so
// no handler depends on a bound for message latency. Ordering between
// dependent messages is preserved *explicitly* by the sink rather than
// implicitly by send order: replies flush in enqueue order within an
// envelope and are demuxed in that order, and a reply to a request that
// arrived in an envelope leaves no later than the envelope's dispatch
// barrier. Dependent sends (the delegate ack, the orphan unlink) are only
// issued by the requester after the reply they depend on has been demuxed,
// and the NoC delivers per-(src,dst) FIFO for direct and coalesced
// transfers alike — so the delegate two-phase handshake observes the same
// order it did with per-request replies.

// IKCBatching configures the unified transport: which operation families
// batch. The zero value disables all batching (every request is a direct
// send). An enabled family batches both directions: requests into
// per-(destination, kind) envelopes and their replies into
// per-(destination, class) envelopes.
type IKCBatching struct {
	// Exchange batches group-spanning capability exchange requests
	// (obtain, delegate) per destination kernel (§4.3.2).
	Exchange bool
	// ServiceQuery batches service-connection requests (session create,
	// session-scoped obtain/delegate) per destination kernel (§4.3.3).
	ServiceQuery bool
	// Revoke batches tree-revocation requests for remote children, one
	// envelope per owning kernel, collected during the mark phase and
	// flushed at its end (the paper's §5.2 proposal). In the reply direction
	// it routes thread-context revoke replies through the sink (they leave
	// at the dispatch barrier); continuation-completed replies stay direct —
	// see ikReplyAsync — so revocation completion never waits on a window.
	Revoke bool
}

// The transport's bounds.
const (
	// maxBatch flushes an exchange/service-query queue inline when it
	// reaches this many requests; reply queues use the same bound. Revoke
	// batches are bounded by the mark phase instead.
	maxBatch = 16
	// flushWindow is the ceiling of the adaptive aggregation window in
	// cycles (0.5 µs at 2 GHz): the longest a non-empty request queue waits
	// for more traffic — long enough to capture concurrent spanning
	// operations, short against the multi-thousand-cycle cost of the
	// operations themselves. Each request queue adapts its own window
	// between flushWindowMin and flushWindow (adaptWindow), so batching
	// stops costing latency on idle links and still aggregates
	// aggressively on busy ones. Reply queues have no window: they drain at
	// the dispatch barrier (see flushReplies).
	flushWindow sim.Duration = 1000
	// flushWindowMin is the adaptive window's floor (32 ns at 2 GHz): close
	// enough to an inline flush that a lone request on a quiet link pays
	// almost nothing for riding the transport.
	flushWindowMin sim.Duration = 64
)

// batchClass groups request kinds into the policy's operation families.
type batchClass uint8

const (
	classNone batchClass = iota
	classExchange
	classSvcQuery
	classRevoke
)

// classOf maps a request kind to its batching family. Handshake
// completions (delegate-ack) and notifications (unlink-child) are never
// batched: they are latency-critical tails of an operation that already
// paid its round trips. Revocation requests ride their own dedicated
// envelope (ikcRevokeBatch, which the mark walk queues explicitly), but
// their thread-context replies flow through the generic sink like everything
// else (continuation completions bypass it — see ikReplyAsync).
func classOf(kind ikcKind) batchClass {
	switch kind {
	case ikcObtain, ikcDelegate:
		return classExchange
	case ikcSession, ikcObtainSess, ikcDelegateSess:
		return classSvcQuery
	case ikcRevoke, ikcRevokeBatch:
		return classRevoke
	default:
		return classNone
	}
}

// sendQueue is one request aggregation queue: the requests of one kind for
// kernel dst, so every envelope carries N requests of a single kind. epoch
// counts the generations flushed, so a flush (timer or transmit-pool job)
// aimed at an already-flushed generation is a no-op; window is the queue's
// adaptive flush window.
//
// Every generation arms exactly one window timer, at its first request, and
// the timers fire in arming order, so the timer that fires is generation
// fired's and the queue, its own timer event, needs no captured epoch. The
// order holds because no armed timer is ever due before one armed earlier
// (arm asserts it; the engine breaks ties by scheduling order). Suppose
// timer m is still pending when a later generation n arms its own. Every
// generation from m on was flushed by some trigger in between; a window
// timer cannot have done it (timers m.. have not fired, by induction, and a
// transmit-pool job of an older generation is a no-op), so the inline
// maxBatch flush did, and a full drain never shrinks the window
// (adaptWindow). Timer n is armed no earlier, with no shorter a window.
type sendQueue struct {
	k      *Kernel
	dst    int
	reqs   []*ikcRequest
	epoch  uint32
	fired  uint32   // window timers fired
	due    sim.Time // when the last armed window timer fires
	window sim.Duration
}

// batches reports whether requests of this kind ride aggregation queues.
// Revocation is excluded here: the mark walk collects its remote children
// on its record and sends them when it ends (forwardBatches), which keeps
// Algorithm 1's outstanding-reply accounting.
func (k *Kernel) batches(kind ikcKind) bool {
	return classOf(kind) != classRevoke && k.batchesReply(kind)
}

// batchesReply reports whether the reply to a request of this kind rides
// the reply sink: whether the policy batches its family.
func (k *Kernel) batchesReply(kind ikcKind) bool {
	switch classOf(kind) {
	case classExchange:
		return k.batching.Exchange
	case classSvcQuery:
		return k.batching.ServiceQuery
	case classRevoke:
		return k.batching.Revoke
	default:
		return false
	}
}

// --- request direction ---------------------------------------------------

// enqueue appends req to its aggregation queue, which holds a reference to
// it, with a as the continuation its reply runs. The caller holds the CPU;
// the compose cost models marshalling the request into the batch buffer.
// The queue flushes inline at maxBatch (growing the adaptive window: load
// sustains batching); otherwise the first request of a generation arms the
// window timer.
func (k *Kernel) enqueue(p *sim.Proc, dst int, req *ikcRequest, a awaited) {
	if k.stamp(p, dst, req, a, true) {
		return
	}
	k.stats.IKCBatched++

	pr := k.peer(dst)
	q := pr.reqq[req.Kind]
	if q == nil {
		// A kernel's queues toward its peers, of one kind, fill a block.
		q = k.sys.queues.New(len(k.sys.kernels))
		*q = sendQueue{k: k, dst: dst, window: flushWindow}
		pr.reqq[req.Kind] = q
	}
	q.reqs = append(k.sys.reqRoom(q.reqs, 1), req.hold())
	if len(q.reqs) >= maxBatch {
		k.flushLocked(p, q)
	} else if len(q.reqs) == 1 {
		q.arm()
	}
}

// arm schedules the window timer of the generation q just started.
func (q *sendQueue) arm() {
	eng := q.k.sys.Eng
	due := eng.Now() + q.window
	if due < q.due {
		panic("core: a flush-window timer is due before one armed earlier")
	}
	q.due = due
	eng.Post(q.window, q)
}

// adaptWindow is the drain feedback of the adaptive flush window: a flush
// that drained a full maxBatch envelope means
// sustained load — double the window (up to the flushWindow ceiling) so
// the queue aggregates even more next time; a flush that drained a single
// message means the wait bought nothing — halve it (down to the
// flushWindowMin floor) so a quiet link converges toward inline sends.
// In-between yields leave the window alone. The trigger (timer, maxBatch,
// dispatch barrier) is deliberately ignored: under CPU contention a
// timer-armed flush routinely drains a full queue, which is load, not
// idleness.
func adaptWindow(window *sim.Duration, drained int) {
	switch {
	case drained >= maxBatch:
		*window = min(flushWindow, *window*2)
	case drained == 1:
		*window = max(flushWindowMin, *window/2)
	}
}

// Fire is q's window timer, in event context when an aggregation window
// closes. If the timer's generation is still pending, the flush becomes a
// job of the kernel's transmit pool (the enqueuers are parked on their
// replies and cannot flush themselves); the job carries the generation, so
// one whose generation flushed inline before it ran is dropped (stale).
// Reply flushes never need the pool: nobody blocks on sending a reply, so
// they run from event context under the ikReplyAsync cost convention.
func (q *sendQueue) Fire() {
	epoch := q.fired // timers fire in arming order, one per generation
	q.fired++
	if q.stale(epoch) {
		return // already flushed inline
	}
	q.k.xmitPool.submit(job{kind: jobFlush, gen: epoch, subj: q})
}

// stale reports whether generation gen of q has already left. A flush job
// checks before it takes the CPU (kthread.Ready) and again once it holds it
// (pool.work): draining the *next* generation instead would cut that
// envelope short and feed adaptWindow a false idle signal.
func (q *sendQueue) stale(gen uint32) bool {
	return q.epoch != gen || len(q.reqs) == 0
}

// flushLocked drains q and transmits its requests to q.dst as a single
// coalesced envelope. The caller holds the CPU. The queue is detached before
// any preemption point, so requests enqueued while this envelope waits for
// an in-flight slot start a fresh generation. In reliable mode the requests
// move into the transmission record, the queue's references with them, and
// the queue continues in the record's spare buffer; otherwise the queue's
// references are dropped once the envelope holds its own, and the queue
// takes its buffer back unless a fresh generation has begun in one.
func (k *Kernel) flushLocked(p *sim.Proc, q *sendQueue) {
	if len(q.reqs) == 0 {
		return
	}
	dst, reqs := q.dst, q.reqs
	q.reqs = nil
	q.epoch++
	adaptWindow(&q.window, len(reqs))

	if k.peerDead(dst) {
		// The destination died while these requests were queued: complete
		// them with error replies instead of transmitting into a black
		// hole (and tying up an in-flight credit).
		for _, req := range reqs {
			k.failFast(req.Seq, dst)
			req.drop(k.sys)
		}
		q.giveBack(reqs)
		return
	}
	var xm *xmitState
	if k.reliable {
		xm = k.newXmit()
		xm.env = true
		xm.reqs, q.reqs = reqs, xm.reqs
	}
	k.exec(p, k.sys.Cost.IKCCompose) // envelope header compose
	k.stats.IKCSent++
	k.stats.IKCBatches++
	pr := k.peers[dst]
	if !pr.credits.TryAcquire() {
		k.awaitCredit(p, pr)
	}
	for _, req := range reqs {
		req.Inc, req.ToInc = k.incarnation, pr.inc
	}
	k.sendEnvelope(dst, reqs, ^uint32(0))
	if xm != nil {
		k.track(dst, xm)
		return
	}
	dropAll(k.sys, reqs)
	q.giveBack(reqs)
}

// giveBack returns the buffer of a drained generation to q, emptied, unless
// q has started the next generation in another.
func (q *sendQueue) giveBack(reqs []*ikcRequest) {
	if q.reqs == nil {
		clear(reqs)
		q.reqs = reqs[:0]
	}
}

// --- reply direction (the sink) ------------------------------------------

// enqueueReply appends rep to the reply queue of its class toward dst. The
// per-reply marshal cost has already been charged by ikReply. It may only
// be called from request-dispatch context: the dispatch barrier that ends
// every dispatch (flushReplies) is what guarantees the queue drains — there
// is no timer fallback, and none is needed, because a reply cannot outlive
// the dispatch that produced it. The only other flush trigger is maxBatch,
// when a wide envelope's replies overflow mid-dispatch.
func (k *Kernel) enqueueReply(dst int, class batchClass, rep ikcReply) {
	q := &k.peer(dst).repq[class]
	*q = append(k.sys.repRoom(*q, 1), rep)
	if len(*q) >= maxBatch {
		k.flushReplies(dst, class)
	}
}

// flushReplies drains the reply queue of one class toward dst and transmits
// it as one reply envelope, preserving enqueue order.
// It is the reply sink's dispatch barrier: the epilogue of every request
// dispatch (kthread.Ready) flushes the queue feeding the request's sender.
// Every handler of an envelope has returned its reply by then (revocation
// answers later, via ikReplyAsync, which bypasses the sink), so an envelope
// of N requests is answered by one reply envelope and no reply waits on a
// timer; and the barrier, unlike a timer, holds the envelope open across
// the handlers' consent and service round trips.
// The envelope-header compose cost is charged as busy time before the send
// (composeReplies, the ikReplyAsync convention); replies bypass the
// in-flight limit — they answer slots the requests reserved — so there is
// nothing to block on. A queue holding a single reply degenerates to a
// direct reply message: there is nothing to share an envelope header with,
// so wrapping it would only add compose time and wire bytes.
func (k *Kernel) flushReplies(dst int, class batchClass) {
	pr := k.peers[dst]
	if pr == nil || len(pr.repq[class]) == 0 {
		return
	}
	reps := pr.repq[class]
	k.stats.IKCRepSent++
	dk := k.sys.kernels[dst]
	if len(reps) == 1 {
		k.sendReply(dk, &reps[0])
	} else {
		k.stats.IKCRepBatches++
		k.stats.IKCRepBatched += uint64(len(reps))
		k.composeReplies(dk, reps...)
	}
	clear(reps)
	pr.repq[class] = reps[:0]
}
