package sim

import (
	"fmt"
	"time"
)

// Partitioned event store: conservative discrete-event simulation in rounds.
//
// The engine's pending-event store is partitioned into Domains, each with its
// own heap + same-instant FIFO lane (the two-lane layout documented in
// engine.go). A fresh engine has exactly one domain — the root — and all the
// sequential entry points run on it unchanged. NewDomain adds partitions;
// from then on the engine runs in one of two modes, both on the calling
// goroutine:
//
//   - Merged (the default, and the only mode RunUntil/Step/RunCtx use): the
//     run loop pops the globally minimal (time, seq) event across all domain
//     lanes. Sequence numbers stay engine-global, so the execution order —
//     and every simulated metric — is byte-identical to the single-lane
//     engine no matter how events are distributed over domains. Bounded and
//     cancellable runs of a partitioned machine use it.
//
//   - Isolated rounds (Run, when SetIsolated(true) and a positive lookahead
//     are configured): the classic conservative execution. Domains must be
//     mutually isolated — a domain's events may only touch that domain's
//     state and procs — except for Post, which crosses domains through the
//     destination's mailbox. Run proceeds in rounds: each round computes the
//     horizon
//
//	horizon = min(next pending timestamp over all domains) + lookahead
//
//     runs every domain with events below the horizon, one after the other
//     in ascending domain id, each against its own local clock, then
//     delivers the posts buffered during the round into the destination
//     lanes.
//
// Why isolated rounds are deterministic: within a round a domain executes
// only its own lane, in (time, domain-local seq) order. Because domains run
// in ascending id and each runs once per round, a destination's mailbox
// fills in (source id, append position) order; the barrier drains it in that
// order, assigning fresh destination sequence numbers. Nothing depends on
// host timing.
//
// Why the lookahead makes the horizon safe: a post created at source time
// τ carries delay d >= lookahead, so it lands at τ + d >= gmin + lookahead =
// horizon (every event executed this round has τ >= gmin), strictly after
// any timestamp a destination can reach within the round. Delivering posts
// at the barrier can therefore never schedule into a domain's past. Posts
// with d < lookahead panic.

// Domain is one partition of the engine's event store: a heap + FIFO lane
// pair, the procs spawned into it, and — during isolated rounds — a local
// clock and a mailbox. Domain 0 (the root) always exists; see
// Engine.NewDomain.
type Domain struct {
	eng      *Engine
	id       int
	heap     []event
	fifo     []event
	fifoHead int
	// procs registers this domain's spawned procs so Kill can stop them.
	procs []*Proc
	// Isolated-rounds state: the domain-local clock and sequence counter.
	// Merged-mode execution uses the engine-global now/seq instead.
	rnow    Time
	rseq    uint64
	inRound bool
	// inbox buffers the cross-domain posts other domains made to this one
	// during a round, in (source id, append) order — domains run in ascending
	// id — until the barrier moves them onto the heap.
	inbox []post
	// Wallclock accounting, filled by the multi-domain run loops.
	busy   time.Duration
	events uint64
	// resumes counts the times step switched into one of this domain's procs.
	resumes uint64
	// fault carries a panic out of a proc body (Proc.run) to the step that
	// resumed it, which re-raises it on the goroutine driving the engine (and
	// therefore recoverable by callers such as the bench harness). One body
	// runs at a time and step looks as soon as it is back, so one slot a
	// domain does for all its procs.
	fault error
}

// post is one cross-domain event in a mailbox: the absolute delivery time
// and the callback. The destination sequence number is assigned at the
// barrier, when the mailbox is drained.
type post struct {
	at Time
	fn func()
}

// DomainStat is one domain's share of a multi-domain run: wallclock spent
// executing its events (Busy, varies run to run), the events executed and
// how many of them resumed a proc (both deterministic).
type DomainStat struct {
	Busy    time.Duration
	Events  uint64
	Resumes uint64
}

// NewDomain adds a partition and returns its handle. The root domain (id 0)
// exists from the start; the first NewDomain call flips the engine from the
// sequential fast path to the merged multi-domain run loop. Must be called
// from the engine side, not during a run.
func (e *Engine) NewDomain() *Domain {
	if e.doms == nil {
		e.doms = append(e.doms, &e.root)
	}
	dm := &Domain{eng: e, id: len(e.doms)}
	e.doms = append(e.doms, dm)
	return dm
}

// Domains returns the number of domains (1 for a fresh engine).
func (e *Engine) Domains() int {
	if e.doms == nil {
		return 1
	}
	return len(e.doms)
}

// Domain returns domain i; Domain(0) is the root and always exists.
func (e *Engine) Domain(i int) *Domain {
	if e.doms == nil {
		if i != 0 {
			panic(fmt.Sprintf("sim: domain %d does not exist", i))
		}
		return &e.root
	}
	return e.doms[i]
}

// SetLookahead sets the minimum virtual-time distance of cross-domain posts
// and the horizon slack of isolated rounds. A NoC-backed model uses the
// network's minimum cross-PE latency (noc.Network.MinLatency).
func (e *Engine) SetLookahead(d Duration) { e.lookahead = d }

// Lookahead returns the configured lookahead bound.
func (e *Engine) Lookahead() Duration { return e.lookahead }

// SetIsolated declares that domains are mutually isolated (no shared state,
// no cross-domain access except Post), which lets Run advance each against
// its own clock in barrier-synchronous rounds. With isolated unset — or with
// one domain, or zero lookahead — Run uses the order-preserving merged loop.
func (e *Engine) SetIsolated(iso bool) { e.isolated = iso }

// DomainStats returns per-domain busy wallclock and event counts of the
// multi-domain run loops, indexed by domain id. It returns nil while the
// engine is on the sequential fast path (no partitioning, nothing measured).
func (e *Engine) DomainStats() []DomainStat {
	if e.doms == nil {
		return nil
	}
	out := make([]DomainStat, len(e.doms))
	for i, dm := range e.doms {
		out[i] = DomainStat{Busy: dm.busy, Events: dm.events, Resumes: dm.resumes}
	}
	return out
}

// ID returns the domain's id (its index in the engine).
func (dm *Domain) ID() int { return dm.id }

// Now returns the domain's current virtual time: the domain-local clock
// while executing an isolated round, the engine-global clock otherwise.
func (dm *Domain) Now() Time {
	if dm.inRound {
		return dm.rnow
	}
	return dm.eng.now
}

// Schedule runs fn after d cycles on this domain's lane. Outside isolated
// rounds it uses the engine-global clock and sequence counter, so merged
// execution keeps the exact (time, seq) total order; inside a round it uses
// the domain-local clocks and must only be called from the domain's own
// executing events and procs.
func (dm *Domain) Schedule(d Duration, fn func()) {
	e := dm.eng
	if e.killed {
		return
	}
	e.checkSettled()
	if dm.inRound {
		dm.rseq++
		if d == 0 {
			dm.fifo = append(dm.fifo, event{at: dm.rnow, seq: dm.rseq, fn: fn})
			return
		}
		dm.heapPush(event{at: dm.rnow + d, seq: dm.rseq, fn: fn})
		return
	}
	e.seq++
	if d == 0 {
		dm.fifo = append(dm.fifo, event{at: e.now, seq: e.seq, fn: fn})
		return
	}
	dm.heapPush(event{at: e.now + d, seq: e.seq, fn: fn})
}

// At runs fn at absolute time t on this domain's lane. Scheduling in the
// past panics, like Engine.At.
func (dm *Domain) At(t Time, fn func()) {
	now := dm.Now()
	if t < now {
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, now))
	}
	dm.Schedule(t-now, fn)
}

// Post schedules fn on domain dst after d cycles. Outside isolated rounds it
// is a plain cross-lane Schedule (merged execution orders it exactly).
// During a round it appends to dst's mailbox, delivered at the barrier; d
// must be at least the lookahead, or the horizon could not have been safe —
// violating posts panic.
func (dm *Domain) Post(dst *Domain, d Duration, fn func()) {
	e := dm.eng
	if e.killed {
		return
	}
	if dst == dm || !dm.inRound {
		dst.Schedule(d, fn)
		return
	}
	e.checkSettled()
	if d < e.lookahead {
		panic(fmt.Sprintf("sim: cross-domain post with delay %d below the lookahead %d", d, e.lookahead))
	}
	dst.inbox = append(dst.inbox, post{at: dm.rnow + d, fn: fn})
}

// heapPush inserts ev into the domain's 4-ary heap (sift-up with a hole, one
// final store instead of swaps).
func (dm *Domain) heapPush(ev event) {
	h := append(dm.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	dm.heap = h
}

// heapPop removes and returns the heap minimum (sift-down with a hole).
func (dm *Domain) heapPop() event {
	h := dm.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure
	h = h[:n]
	dm.heap = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			min := c
			for j := c + 1; j < end; j++ {
				if eventLess(&h[j], &h[min]) {
					min = j
				}
			}
			if !eventLess(&h[min], &last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return top
}

// peek returns the domain's next event in (at, seq) order without removing
// it. now is the clock the lane runs against (engine-global in merged mode,
// domain-local in a round): lane events carry at == now, and a heap event at
// the same instant has a lower seq — it wins (see the Engine doc).
func (dm *Domain) peek(now Time) (event, bool) {
	if dm.fifoHead < len(dm.fifo) {
		if len(dm.heap) > 0 && dm.heap[0].at == now {
			return dm.heap[0], true
		}
		return dm.fifo[dm.fifoHead], true
	}
	if len(dm.heap) > 0 {
		return dm.heap[0], true
	}
	return event{}, false
}

// pop removes and returns the domain's next event in (at, seq) order.
func (dm *Domain) pop(now Time) event {
	if dm.fifoHead < len(dm.fifo) {
		if len(dm.heap) > 0 && dm.heap[0].at == now {
			return dm.heapPop()
		}
		ev := dm.fifo[dm.fifoHead]
		dm.fifo[dm.fifoHead].fn = nil // release the closure
		dm.fifoHead++
		if dm.fifoHead == len(dm.fifo) {
			// Lane drained: rewind so the backing array is reused.
			dm.fifo = dm.fifo[:0]
			dm.fifoHead = 0
		}
		return ev
	}
	return dm.heapPop()
}

// pending returns the number of queued events, the mailbox included.
func (dm *Domain) pending() int {
	return len(dm.heap) + len(dm.fifo) - dm.fifoHead + len(dm.inbox)
}

// drain empties the lanes and the mailbox, releasing closures but keeping the
// backing arrays for pooled reuse.
func (dm *Domain) drain() {
	clear(dm.heap)
	dm.heap = dm.heap[:0]
	clear(dm.fifo)
	dm.fifo = dm.fifo[:0]
	dm.fifoHead = 0
	clear(dm.inbox)
	dm.inbox = dm.inbox[:0]
}

// killProcs unwinds this domain's live procs (see Engine.Kill). stop
// returns once a parked body has fully unwound — or at once if the proc was
// never started and has no body to unwind — so the live-proc count is
// settled here, on the engine side, rather than in the body.
func (dm *Domain) killProcs() {
	for i, p := range dm.procs {
		if !p.dead {
			p.stop()
			p.exit()
		}
		dm.procs[i] = nil
	}
	dm.procs = dm.procs[:0]
	dm.fault = nil // a body that panicked for real while unwinding: nobody to tell
}

// minDomain returns the domain holding the globally minimal (at, seq) event,
// or nil if every lane is empty — the merged run loop's selector.
func (e *Engine) minDomain() *Domain {
	var best *Domain
	var bev event
	for _, dm := range e.doms {
		ev, ok := dm.peek(e.now)
		if !ok {
			continue
		}
		if best == nil || eventLess(&ev, &bev) {
			best, bev = dm, ev
		}
	}
	return best
}

// runMerged is the multi-domain order-preserving run loop: pop the global
// (at, seq) minimum across lanes, execute it with e.cur set to its domain
// (so context-free Schedule calls land on the executing domain's lane), and
// attribute wallclock to domains at switch points.
func (e *Engine) runMerged(t Time) {
	last := e.cur
	mark := time.Now()
	for {
		dm := e.minDomain()
		if dm == nil {
			break
		}
		ev, _ := dm.peek(e.now)
		if ev.at > t {
			break
		}
		if dm != last {
			now := time.Now()
			last.busy += now.Sub(mark)
			mark, last = now, dm
		}
		e.cur = dm
		dm.events++
		e.runEvent(dm.pop(e.now))
	}
	last.busy += time.Since(mark)
}

// runIsolated executes the isolated domains to completion in
// barrier-synchronous rounds, on the calling goroutine. See the comment at
// the top of this file for the horizon and determinism argument.
func (e *Engine) runIsolated() {
	for _, dm := range e.doms {
		dm.rnow = e.now
		dm.rseq = e.seq
	}
	// Engine-level scheduling has no defined lane while domains run against
	// their own clocks; a nil cur turns it into a contract-violation panic.
	e.cur = nil
	defer func() { e.cur = &e.root }()
	// mark is the running wallclock: one time.Now per round slice (the slice
	// plus the preceding barrier bookkeeping all attribute to the executing
	// domain, like merged-mode switch-point accounting).
	mark := time.Now()
	// nextAt caches each domain's next pending timestamp for the round
	// (sentinel noEvent: empty), so the gmin scan and the execution scan
	// share one peek pass.
	const noEvent = ^Time(0)
	nextAt := make([]Time, len(e.doms))
	for {
		gmin, any := Time(0), false
		for i, dm := range e.doms {
			// The barrier: deliver the previous round's posts in mailbox order
			// — (source id, append) — with fresh destination seqs. The
			// lookahead guarantees at > dm.rnow, so these are heap events.
			for _, p := range dm.inbox {
				dm.rseq++
				dm.heapPush(event{at: p.at, seq: dm.rseq, fn: p.fn})
			}
			clear(dm.inbox) // release the closures, keep the backing array
			dm.inbox = dm.inbox[:0]
			ev, ok := dm.peek(dm.rnow)
			if !ok {
				nextAt[i] = noEvent
				continue
			}
			nextAt[i] = ev.at
			if !any || ev.at < gmin {
				gmin, any = ev.at, true
			}
		}
		if !any {
			break
		}
		horizon := gmin + e.lookahead
		// Faults surface after the barrier — the whole round runs first — so
		// they are recoverable by callers and deterministic: when several
		// domains fault in one round, the lowest domain id wins.
		var fault error
		for i, dm := range e.doms {
			if nextAt[i] >= horizon {
				continue
			}
			executed, f := dm.runRound(horizon)
			now := time.Now()
			dm.busy += now.Sub(mark)
			mark = now
			e.executed += executed
			if fault == nil {
				fault = f
			}
		}
		if fault != nil {
			panic(fault)
		}
		if e.limit != 0 && e.executed > e.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded (possible livelock)", e.limit))
		}
	}
	// Advance the global clocks past everything the rounds executed, so a
	// later merged run (or Kill-time diagnostics) sees consistent time.
	for _, dm := range e.doms {
		if dm.rnow > e.now {
			e.now = dm.rnow
		}
		if dm.rseq > e.seq {
			e.seq = dm.rseq
		}
	}
}

// runRound executes this domain's events with timestamps strictly below the
// horizon, advancing the domain-local clock. A panic (including a proc fault
// re-raised by step) is captured and reported to runIsolated.
func (dm *Domain) runRound(horizon Time) (n uint64, fault error) {
	defer func() {
		dm.inRound = false
		dm.events += n
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				fault = fmt.Errorf("sim: domain %d: %w", dm.id, err)
			} else {
				fault = fmt.Errorf("sim: domain %d: %v", dm.id, r)
			}
		}
	}()
	dm.inRound = true
	for {
		ev, ok := dm.peek(dm.rnow)
		if !ok || ev.at >= horizon {
			return n, nil
		}
		if ev.at < dm.rnow {
			panic("sim: domain event queue went backwards")
		}
		ev = dm.pop(dm.rnow)
		dm.rnow = ev.at
		ev.fn()
		n++
	}
}
