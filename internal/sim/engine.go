// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models virtual time in cycles. Events are ordered by
// (time, sequence number) so that runs are bit-reproducible. On top of the
// raw event queue the package offers cooperative processes (Proc): coroutines
// that run one at a time under strict handoff with the engine, which lets
// protocol code (e.g. a kernel thread performing an inter-kernel call) be
// written in a natural blocking style while the simulation stays
// deterministic.
//
// The pending-event store can be partitioned into Domains (domain.go), each
// advancing against its own clock in conservative rounds; a fresh engine has
// a single domain and runs on the sequential fast path throughout.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a point in virtual time, measured in cycles.
type Time uint64

// Duration is a span of virtual time, measured in cycles.
type Duration = Time

// event is one scheduled callback. Events are totally ordered by (at, seq):
// time first, then scheduling order within an instant.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// eventLess is the queue's total order.
func eventLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// use NewEngine.
//
// Each domain's pending-event store has two lanes (see Domain in domain.go):
//
//   - heap: a monomorphic inline 4-ary min-heap over []event, ordered by
//     (at, seq), holding events scheduled for a strictly later instant.
//     No interface boxing, no container/heap indirection.
//   - fifo: the same-instant lane. Schedule(0, ...) — the storm generated by
//     Wake, Yield and Spawn — appends here instead of touching the heap.
//     Because seq only grows, appending keeps the lane sorted by (at, seq),
//     and popping is a head-index increment.
//
// The split preserves the global (at, seq) order exactly: lane events carry
// at == now, and any heap event at the same instant was necessarily scheduled
// before time advanced to that instant (while now was smaller), so its seq is
// lower than every lane event's — the heap drains first at each instant (see
// Domain.pop). Time only advances while the lane is empty, so the lane never
// holds stale timestamps.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	limit    uint64 // safety valve: max events executed, 0 = unlimited
	killed   bool
	// cur is the domain that context-free Schedule/Spawn/At calls route to:
	// the domain whose event is currently executing, the root domain outside
	// of runs. It is nil only while isolated rounds are in flight, when
	// engine-level scheduling has no defined lane and panics.
	cur *Domain
	// running is the proc whose body is executing, nil on the engine side;
	// checkSettled reads it.
	running *Proc
	// root is domain 0, embedded so the common single-domain engine costs no
	// extra allocation. doms stays nil on the sequential fast path and lists
	// all domains (root first) once NewDomain has been called.
	root Domain
	doms []*Domain
	// Isolated-rounds configuration (domain.go): the lookahead horizon slack
	// and the isolation declaration.
	lookahead Duration
	isolated  bool
	// procs counts live procs for leak diagnostics.
	procs atomic.Int64
}

// NewEngine returns a ready-to-run engine with time at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.root.eng = e
	e.cur = &e.root
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Resumes returns the number of proc resumptions so far: the events whose
// step switched into a proc body, as opposed to running a handler or
// replaying an owed charge (Proc.Settle). Like Executed it is deterministic;
// Executed stays put when a Sleep becomes a Charge, Resumes falls.
func (e *Engine) Resumes() uint64 {
	if e.doms == nil {
		return e.root.resumes
	}
	var n uint64
	for _, dm := range e.doms {
		n += dm.resumes
	}
	return n
}

// SetEventLimit caps the total number of events the engine may execute.
// Zero (the default) means unlimited. SetEventLimit(n) means at most n
// events: executing event n+1 panics (in Run and Step alike), which catches
// runaway simulations in tests. Isolated rounds check the limit at their
// barriers, so the panic there may lag by up to one round.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// Schedule runs fn after d cycles of virtual time, on the lane of the
// currently executing domain (the root domain when only one exists, so the
// sequential behavior is unchanged). It may be called from event handlers
// and from Procs; calling it after Kill is a no-op, calling it during
// isolated rounds panics (use Domain.Schedule or the proc APIs there).
func (e *Engine) Schedule(d Duration, fn func()) {
	if e.killed {
		return
	}
	dm := e.cur
	if dm == nil {
		panic("sim: Engine.Schedule during isolated rounds (use Domain.Schedule or the proc APIs)")
	}
	e.checkSettled()
	e.seq++
	if d == 0 {
		dm.fifo = append(dm.fifo, event{at: e.now, seq: e.seq, fn: fn})
		return
	}
	dm.heapPush(event{at: e.now + d, seq: e.seq, fn: fn})
}

// checkSettled panics if the running proc schedules while it owes time
// (Proc.Charge). An event scheduled then would take a sequence number ahead
// of the owed charges' own events — a Wake, a timer or a message would
// overtake the time its sender has not spent yet, and the run would drift
// from the one a Sleep per charge produces without anything failing.
// Settle's own Schedule is exempt: by then the proc is replaying.
func (e *Engine) checkSettled() {
	if r := e.running; r != nil && r.nOwed != 0 && r.replayed == 0 {
		panic("sim: proc schedules with unsettled charges")
	}
}

// At runs fn at absolute time t. Scheduling in the past panics: it would
// silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.Schedule(t-e.now, fn)
}

// peek returns the next event in global (at, seq) order without removing it.
func (e *Engine) peek() (event, bool) {
	if e.doms == nil {
		return e.root.peek(e.now)
	}
	dm := e.minDomain()
	if dm == nil {
		return event{}, false
	}
	return dm.peek(e.now)
}

// pop removes and returns the next event in global (at, seq) order, setting
// the executing domain on the multi-domain path.
func (e *Engine) pop() event {
	if e.doms == nil {
		return e.root.pop(e.now)
	}
	dm := e.minDomain()
	e.cur = dm
	dm.events++
	return dm.pop(e.now)
}

// runEvent enforces causality and the event limit, advances virtual time to
// ev.at, and executes ev. It is the single execution path shared by RunUntil
// and Step, so both do identical accounting.
func (e *Engine) runEvent(ev event) {
	if ev.at < e.now {
		panic("sim: event queue went backwards")
	}
	if e.limit != 0 && e.executed >= e.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded (possible livelock)", e.limit))
	}
	e.now = ev.at
	ev.fn()
	e.executed++
}

// Run executes events until the queue is empty. On a partitioned engine that
// declared isolation (SetIsolated) with a positive lookahead, Run uses the
// barrier-synchronous rounds; otherwise the merged loop preserves
// the exact sequential (time, seq) order.
func (e *Engine) Run() {
	if e.doms != nil && e.isolated && e.lookahead > 0 {
		e.runIsolated()
		return
	}
	e.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= t, advancing virtual time.
// It returns when the queue is empty or the next event is beyond t. It
// always uses order-preserving execution (sequential or merged), never the
// isolated rounds — bounded runs need the exact global order.
func (e *Engine) RunUntil(t Time) {
	if e.doms == nil {
		dm := &e.root
		for {
			ev, ok := dm.peek(e.now)
			if !ok || ev.at > t {
				return
			}
			e.runEvent(dm.pop(e.now))
		}
	}
	e.runMerged(t)
}

// Step executes exactly one event if available and reports whether it did.
// It shares RunUntil's causality check and event-limit accounting, and is a
// no-op after Kill.
func (e *Engine) Step() bool {
	if e.killed {
		return false
	}
	if _, ok := e.peek(); !ok {
		return false
	}
	e.runEvent(e.pop())
	return true
}

// Pending returns the number of queued events across all domains, mailboxes
// included.
func (e *Engine) Pending() int {
	if e.doms == nil {
		return e.root.pending()
	}
	n := 0
	for _, dm := range e.doms {
		n += dm.pending()
	}
	return n
}

// drain empties all queues, releasing the event closures but keeping the
// backing arrays so a pooled engine reuses its slabs.
func (e *Engine) drain() {
	if e.doms == nil {
		e.root.drain()
		return
	}
	for _, dm := range e.doms {
		dm.drain()
	}
}

// Kill terminates the simulation: parked Procs unwind and exit, and further
// Schedule calls are ignored. Call it when a simulation is finished to avoid
// leaking the coroutines of procs that are still parked (e.g. server loops).
//
// Every proc has fully unwound when Kill returns, so LiveProcs is exact
// afterwards. It must be called from the engine side (between events or
// after Run), never from within a Proc body — a proc cannot stop itself.
func (e *Engine) Kill() {
	if e.killed {
		return
	}
	e.killed = true
	// Drain remaining events so parked procs that were about to be resumed
	// are not left half-woken.
	e.drain()
	// Stop every live proc. All of them are quiescent here — Kill runs on
	// the engine side — so each is either parked in yield, which now returns
	// false and unwinds the body, or was never started.
	if e.doms == nil {
		e.root.killProcs()
	} else {
		for _, dm := range e.doms {
			dm.killProcs()
		}
	}
}

// LiveProcs returns the number of procs that have been spawned and have not
// yet exited. Useful to detect leaks in tests.
func (e *Engine) LiveProcs() int { return int(e.procs.Load()) }
