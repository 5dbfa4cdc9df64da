package core

import (
	"repro/internal/ddl"
	"repro/internal/sim"
)

// Reliable IKC mode. The baseline inter-kernel protocol assumes the
// lossless fabric the paper assumes: a dropped message hangs its call
// forever. When a fault plan is attached (Config.Faults,
// even one that injects nothing) every kernel runs this layer on top of the
// unchanged request/reply protocol:
//
//   - Sender: every wire transmission (direct request or coalesced
//     envelope) is tracked with a retransmission timer. On expiry the
//     still-unanswered requests are re-sent, the timeout doubles (capped
//     at rtoMax), and after maxRetries expiries the destination kernel is
//     declared dead: all its outstanding calls complete with
//     ErrPeerDead, new requests to it fail fast, and the service
//     directory stops routing to it (service.go). Death is a per-observer
//     verdict — each kernel judges its peers from its own traffic only.
//     A transmission is one recycled record (xmitState), taken when its
//     requests first go on the wire and returned from its last event — the
//     timer or resend that finds it done with nothing else pending — so a
//     stale event never reaches a reused record. Its timer and resend are
//     bound to the record once; an aggregation queue's window timer is
//     bound to its queue once, too, and names no generation, because a
//     queue's window timers fire in the order they were armed (sendQueue,
//     transport.go, has the argument).
//   - Receiver: requests are deduplicated by (sender, sequence number),
//     so a retransmitted request whose original made it through dispatches
//     exactly once; the reply is cached in the sender's peer record
//     (bounded FIFO, replyCache entries) and replayed for duplicates whose
//     reply was the lost message. Late or duplicate replies at the
//     requester are counted (LateReplies), never fatal.
//   - Credits: as on the lossless fabric, the sender's in-flight credit
//     returns when the receiver picks the leg up (onCredit), once per
//     transmission however often its copies are picked up. A leg that is
//     never picked up returns it when its transmission aborts (the peer
//     declared dead, or a rejoin), so a lost request cannot leak it.
//
// Without a fault plan none of this code runs and the event trace is
// byte-identical to the baseline.

// The reliable layer's timers and budgets. The base timeout must comfortably
// exceed a loaded round trip (compose + NoC + dispatch queueing + handler
// work, which can itself block on nested round trips); 30µs (60k cycles at
// 2GHz) keeps spurious retransmits rare at the sweep's contention levels
// while recovering losses long before the makespan scale.
const (
	// rtoBase is the initial retransmission timeout per transmission.
	rtoBase sim.Duration = 60_000
	// rtoMax caps the exponential backoff.
	rtoMax sim.Duration = 960_000
	// maxRetries is the retry budget per transmission; one more expiry
	// declares the destination dead.
	maxRetries = 8
	// replyCache bounds the per-peer reply-retransmission cache.
	replyCache = 128
)

// xmitState tracks one wire transmission — a direct request or a
// coalesced envelope of several — until every carried request is answered
// or the destination is declared dead. credited says the receiver picked a
// copy of it up, which returned its in-flight credit.
//
// Like an ikcWire it is recycled, through System.xmits (newXmit), and is
// its own timer and resend event (xmitTimer, xmitResend); its request list
// keeps its buffer, so a warmed transmission allocates nothing. It holds a
// reference to each request in reqs until release; resend picks a subset of
// reqs, a bit each (an envelope carries at most maxBatch). A
// record has at most one retransmission timer (armed) and one resend
// (resending) pending: track arms the first timer and every expiry arms at
// most the next, and a resend, scheduled IKCCompose ahead of the timer
// armed with it, leaves before that timer fires unless composing outlasts
// the timeout (expire asserts it). While either is pending the event still
// holds the record, so the record goes back to System.xmits only from its
// own event, once it is done and neither is pending (release). By then no
// pending entry and no live list names it: a done record answered or
// aborted every request it tracked and was unlinked.
type xmitState struct {
	k    *Kernel
	dst  int
	env  bool // envelope vs direct send
	reqs []*ikcRequest
	// resend picks the requests the pending resend re-sends, bit i for
	// reqs[i]: those the transmission still owned when its timer expired.
	resend    uint32
	remaining int
	tries     int
	rto       sim.Duration
	firstSent sim.Time
	retried   bool
	credited  bool
	done      bool
	armed     bool // its retransmission timer is pending
	resending bool // its resend is being composed
}

// newXmit takes a released transmission record (or makes one) for a
// transmission of k.
func (k *Kernel) newXmit() *xmitState {
	xm := k.sys.xmits.New(k.sys.recBlock)
	xm.k = k
	return xm
}

// release hands xm back for reuse once nothing can reach it any more:
// it is done, and neither its timer nor its resend is pending. Only xm's
// own events call it.
func (xm *xmitState) release() {
	if !xm.done || xm.armed || xm.resending {
		return
	}
	s := xm.k.sys
	dropAll(s, xm.reqs)
	clear(xm.reqs)
	*xm = xmitState{reqs: xm.reqs[:0]}
	s.xmits.Put(xm)
}

// peerDead reports whether this kernel has declared dst dead.
func (k *Kernel) peerDead(dst int) bool {
	pr := k.peers[dst]
	return pr != nil && pr.dead
}

// failFast completes a request's call with ErrPeerDead without ever
// putting it on the wire.
func (k *Kernel) failFast(seq uint64, dst int) {
	k.stats.FailFast++
	k.failPending(seq, dst)
}

// failPending completes the call of request seq, if it is still pending,
// with ErrPeerDead from dst.
func (k *Kernel) failPending(seq uint64, dst int) {
	a, ok := k.pending.Get(ddl.Key(seq))
	if ok {
		k.pending.Delete(ddl.Key(seq))
		k.complete(a, &ikcReply{Seq: seq, From: dst, Err: ErrPeerDead})
	}
}

// track registers xm, a transmission of its requests that just left on the
// wire toward dst, and arms its retransmission timer.
func (k *Kernel) track(dst int, xm *xmitState) {
	xm.dst = dst
	xm.remaining = len(xm.reqs)
	xm.rto = rtoBase
	xm.firstSent = k.sys.Eng.Now()
	for _, r := range xm.reqs {
		k.pending.Slot(ddl.Key(r.Seq)).xm = xm
	}
	pr := k.peers[dst]
	pr.live = append(k.sys.liveRoom(pr.live), xm)
	k.arm(xm)
}

func (k *Kernel) arm(xm *xmitState) {
	xm.armed = true
	k.sys.Eng.Post(xm.rto, (*xmitTimer)(xm))
}

// xmitTimer and xmitResend are a transmission record as its two events.
type xmitTimer xmitState
type xmitResend xmitState

// Fire is xm's retransmission timer event.
func (t *xmitTimer) Fire() {
	xm := (*xmitState)(t)
	xm.armed = false
	xm.k.expire(xm)
	xm.release()
}

// Fire is xm's resend event, IKCCompose after the expiry that scheduled it.
func (r *xmitResend) Fire() {
	xm := (*xmitState)(r)
	xm.resending = false
	xm.k.resend(xm)
	xm.release()
}

// onReply counts one request of xm answered (recvReply has dropped it from
// pending). When the last request of the transmission resolves, the
// transmission completes, and a retransmitted one records its recovery
// latency; its credit came back when it was picked up.
func (k *Kernel) onReply(xm *xmitState) {
	xm.remaining--
	if xm.remaining > 0 || xm.done {
		return
	}
	xm.done = true
	k.unlink(xm)
	if xm.retried {
		k.stats.Recovered++
		k.stats.RecoveryCycles += k.sys.Eng.Now() - xm.firstSent
	}
}

// expire is the retransmission timer (event context). Still-unanswered
// requests of the transmission are re-sent with doubled timeout; past the
// retry budget the destination is declared dead instead.
func (k *Kernel) expire(xm *xmitState) {
	if xm.done {
		return
	}
	if k.peerDead(xm.dst) {
		k.unlink(xm)
		k.abort(xm)
		return
	}
	if xm.tries >= maxRetries {
		k.markDead(xm.dst)
		return
	}
	xm.tries++
	xm.retried = true
	xm.rto = min(xm.rto*2, rtoMax)
	if xm.resending {
		panic("core: a retransmission timer fired before its predecessor's resend left (IKCCompose exceeds the timeout)")
	}
	// Only requests this transmission still owns are re-sent: a request
	// answered (or aborted) since the last send left pending.
	xm.resend = 0
	for i, r := range xm.reqs {
		if k.awaiting(r.Seq).xm == xm {
			xm.resend |= 1 << i
		}
	}
	if xm.resend == 0 {
		return
	}
	k.stats.Retransmits++
	k.stats.Busy += k.sys.Cost.IKCCompose
	xm.resending = true
	k.sys.Eng.Post(k.sys.Cost.IKCCompose, (*xmitResend)(xm))
	k.arm(xm)
}

// resend puts the requests expire picked back on the wire, once their
// compose cost has elapsed (event context). No new in-flight credit: the
// retransmit rides the original's, which a pickup of either copy returns
// once (onCredit).
func (k *Kernel) resend(xm *xmitState) {
	if xm.done || k.peerDead(xm.dst) {
		return
	}
	if xm.env {
		k.sendEnvelope(xm.dst, xm.reqs, xm.resend)
		return
	}
	k.sendRequest(k.sys.kernels[xm.dst], xm.reqs[0]) // a direct send has one
}

// An envelope's requests fit one xmitState.resend, a bit each.
var _ [32 - maxBatch]struct{}

// markDead is the degradation step: dst exhausted its retry budget, so
// this kernel stops talking to it. Every outstanding transmission aborts,
// completing its calls with ErrPeerDead in first-send order, and so do the
// forwards still deferred toward dst, after them.
func (k *Kernel) markDead(dst int) {
	pr := k.peers[dst]
	if pr.dead {
		return
	}
	pr.dead = true
	k.stats.DeadPeers++
	k.abortLive(pr)
	k.failDeferred(dst)
}

// abortLive aborts the transmissions still live toward pr, in first-send
// order.
func (k *Kernel) abortLive(pr *peer) {
	xms := pr.live
	pr.live = nil
	for _, xm := range xms {
		if !xm.done {
			k.abort(xm)
		}
	}
}

// abort completes a transmission's unanswered calls with ErrPeerDead
// and returns its in-flight credit if no pickup did. The caller has already
// unlinked xm from its peer's live list (or is draining the whole list).
func (k *Kernel) abort(xm *xmitState) {
	xm.done = true
	for _, req := range xm.reqs {
		if k.awaiting(req.Seq).xm == xm {
			k.failPending(req.Seq, xm.dst)
		}
	}
	if !xm.credited {
		k.creditBack(xm.dst)
	}
}

// unlink removes xm from its destination's live list.
func (k *Kernel) unlink(xm *xmitState) {
	pr := k.peers[xm.dst]
	for i, x := range pr.live {
		if x == xm {
			pr.live = append(pr.live[:i], pr.live[i+1:]...)
			return
		}
	}
}

// admit is the receive gate every picked-up request passes before its
// dispatch: true means dispatch it. Timers and the rejoin reset write what it
// reads, admitting a rejoined peer completes calls and a duplicate's cached
// reply is replayed from here, so the dispatch time passes first. Then two
// checks, in order:
//
//   - Incarnation: a request stamped with an incarnation older than the
//     highest observed for its sender is a stale retransmit from before the
//     sender's crash, dropped silently (the dead incarnation's calls were
//     aborted at its rejoin, so nobody waits for an answer). A newer stamp
//     admits the rejoined sender (admitIncarnation) — the explicit ikcRejoin
//     handshake is normally the first such request, but any request can carry
//     the news, since the handshake itself may be dropped or reordered by the
//     faulty fabric. Then a request addressed to a dead incarnation of this
//     kernel is dropped too: its sender aborts it when it admits the rejoin.
//   - Duplicates: a request already dispatched is suppressed and, if its
//     reply is already cached, answered by replaying that reply (the original
//     reply was evidently the lost message).
func (k *Kernel) admit(p *sim.Proc, req *ikcRequest) bool {
	if !k.reliable {
		return true
	}
	p.Settle()
	pr := k.peer(req.From)
	switch {
	case req.Inc < pr.inc:
		k.stats.StaleIncarnation++
		return false
	case req.Inc > pr.inc:
		k.admitIncarnation(req.From, req.Inc)
	}
	if req.ToInc < k.incarnation {
		k.stats.StaleIncarnation++
		return false
	}
	d := k.dedupOf(pr)
	if slot, seen := d.filter.Get(ddl.Key(req.Seq)); seen {
		k.stats.DupSuppressed++
		if slot >= 0 {
			k.stats.ReplayedReplies++
			k.sendReply(k.sys.kernels[req.From], &d.ring[slot])
		}
		return false
	}
	d.filter.Put(ddl.Key(req.Seq), -1) // in progress
	return true
}

// cacheReply records rep, the reply to request rep.Seq from kernel from, so
// a duplicate of the request can be answered by replay. Completed entries
// beyond the cache bound evict FIFO; with MaxInflight bounding concurrent
// requests per pair, a duplicate arriving after its entry's eviction would
// require a retransmit delayed past replyCache newer completions — out of
// scope by design (the sweep's timeouts resolve far sooner).
func (k *Kernel) cacheReply(from int, rep *ikcReply) {
	if !k.reliable {
		return
	}
	d := k.dedupOf(k.peer(from))
	slot := d.used
	if slot < replyCache {
		d.used++
	} else {
		slot = d.oldest
		d.filter.Delete(ddl.Key(d.ring[slot].Seq))
		d.oldest = (slot + 1) % replyCache
	}
	d.ring[slot] = *rep
	d.filter.Put(ddl.Key(rep.Seq), int32(slot))
}

// dedup is the receiver's duplicate filter and reply cache for the requests
// of one peer (admit, cacheReply): one record per pair of kernels, with the
// storage of both inside, from the machine's blocks of dedupBlock, taken
// when the first request from the peer is admitted (dedupOf). filter maps
// every dispatched sequence number to its reply's slot in ring once the
// reply exists (-1 while in progress); ring holds the last replyCache
// replies by value in its first used slots, the oldest at oldest once it is
// full, and a reply the ring overwrites leaves the filter. A sequence
// number is a nonzero uint64, like the DDL keys a ddl.KeyMap is made for.
// The filter holds the cached replies' numbers and those in progress, which
// stay well below three quarters of its filterLen-entry table (capstorm
// runs peak at three in progress), so it never grows.
type dedup struct {
	filter       ddl.KeyMap[int32]
	used, oldest int
	ring         [replyCache]ikcReply
	keys         [filterLen]ddl.Key
	slots        [filterLen]int32
}

const (
	filterLen  = 2 * replyCache
	dedupBlock = 2
)

// dedupOf returns pr's duplicate filter, taking its record on first use.
func (k *Kernel) dedupOf(pr *peer) *dedup {
	if pr.seen == nil {
		pr.seen = k.sys.dedups.New(dedupBlock)
		pr.seen.filter.Use(pr.seen.keys[:], pr.seen.slots[:])
	}
	return pr.seen
}

// reset forgets every request d has seen and keeps its storage.
func (d *dedup) reset() {
	d.filter.Clear()
	clear(d.ring[:d.used])
	d.used, d.oldest = 0, 0
}
