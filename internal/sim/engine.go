// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models virtual time in cycles. Events are ordered by
// (time, sequence number) so that runs are bit-reproducible. On top of the
// raw event queue the package offers cooperative processes (Proc): coroutines
// that run one at a time under strict handoff with the engine, which lets
// protocol code (e.g. a kernel thread performing an inter-kernel call) be
// written in a natural blocking style while the simulation stays
// deterministic. One engine is one event queue, one clock and one sequence
// counter, driven by one goroutine.
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is a point in virtual time, measured in cycles.
type Time uint64

// Duration is a span of virtual time, measured in cycles.
type Duration = Time

// Event is what the engine fires. A record that recurs on the queue (a
// proc's step, a message in flight, a timer) is its own event.
type Event interface{ Fire() }

// Func is a callback as an Event; a func is one pointer, so it converts
// without allocating.
type Func func()

func (f Func) Fire() { f() }

// slot is one event of the later lane: the event and the slot of the next
// event of its run, noSlot at the run's tail. Free slots chain through next
// as well.
type slot struct {
	ev   Event
	next int32
}

// noSlot ends a run's chain and the free chain.
const noSlot = -1

// run is a FIFO of later-lane events that share an instant: at, the seq of
// its first event, and the slot of its next event to execute. Runs are
// totally ordered by (at, seq).
type run struct {
	at   Time
	seq  uint64
	head int32
}

// runLess is the later lane's total order.
func runLess(a, b *run) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// tailCacheSize is the number of entries of the tail cache, a power of two so
// that at%tailCacheSize is a mask.
const tailCacheSize = 64

// tail is one tail-cache entry: the newest run for instant at ends in slot.
type tail struct {
	at   Time
	slot int32
}

// Engine is a discrete-event simulation engine. The zero value is not usable;
// use NewEngine.
//
// The pending-event store has two lanes:
//
//   - later: events scheduled for a strictly later instant. Events of one
//     instant form runs, FIFO chains through one recycled slot slab, and the
//     runs sit in an inline 4-ary min-heap ordered by (at, first seq). The
//     direct-mapped tail cache, tails[at%64], names the newest run of a
//     recent instant, so pushing onto an instant that already has one is an
//     append; popping takes the top run's head and touches the heap only
//     when the run empties.
//   - fifo: the same-instant lane. Post(0, ...) — the storm generated by
//     Wake, Sleep(0) and Spawn — appends its event here instead of
//     touching the later lane. Its events are at now and, because seq only
//     grows, in seq order, so it stores neither; popping is a head-index
//     increment.
//
// The later lane keeps the (at, seq) order exactly. Within a run seq order
// holds: seq only grows and appends follow push order. Two runs of one
// instant exist only after a tail-cache collision; the cache then names the
// newer run, so the older one never receives another event, all its events
// precede the newer run's, and ordering runs by first seq is exact. A stale
// cache entry never matches: a run drains only when now == at, and every
// later push is for an instant after now (drain clears the cache for a
// pooled engine, whose clock starts again at zero).
//
// The split of the lanes preserves the global (at, seq) order too: lane events
// are at now, and any later-lane event at the same instant was necessarily
// scheduled before time advanced to that instant (while now was smaller), so
// its seq is lower than every lane event's — the later lane drains first at
// each instant (see next). Time only advances while the lane is empty, so the
// lane never holds events of an earlier instant.
type Engine struct {
	now      Time
	seq      uint64
	executed uint64
	// resumes counts the times step switched into a proc body.
	resumes uint64
	limit   uint64 // safety valve: max events executed, 0 = unlimited
	killed  bool
	// running is the proc whose body — or whose Waiter, asked by step
	// (Proc.poll) — is executing, nil on the engine side otherwise;
	// checkSettled reads it.
	running  *Proc
	runs     []run  // the later lane's heap
	slots    []slot // the later lane's events
	free     int32  // first free slot, noSlot if none
	fifo     []Event
	fifoHead int
	// procs registers the spawned procs so Kill can stop them; live counts
	// those that have not exited, for leak diagnostics. Their records come
	// from procRecs.
	procs    []*Proc
	procRecs Blocks[Proc]
	live     atomic.Int64
	// body is every proc's coroutine body, bound once (spawn).
	body func(yield func(struct{}) bool)
	// fault carries a panic out of a proc body (Proc.run) to the step that
	// resumed it, which re-raises it on the goroutine driving the engine (and
	// therefore recoverable by callers such as the bench harness). One body
	// runs at a time and step looks as soon as it is back, so one slot does
	// for all procs.
	fault error
	// tails is the later lane's tail cache, last so that the fields above
	// share cache lines.
	tails [tailCacheSize]tail
}

// NewEngine returns a ready-to-run engine with time at zero.
func NewEngine() *Engine {
	e := &Engine{free: noSlot}
	e.body = func(yield func(struct{}) bool) { e.running.run(yield) }
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
func (e *Engine) Resumes() uint64 { return e.resumes }

// SetEventLimit caps the total number of events the engine may execute.
// Zero (the default) means unlimited. SetEventLimit(n) means at most n
// events: executing event n+1 panics between events, so a runaway
// simulation ends in an error instead of running forever. The bench harness
// sets one for every task (runTask in internal/bench); Reset clears it.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// Schedule runs fn after d cycles of virtual time: Post of fn as a Func.
func (e *Engine) Schedule(d Duration, fn func()) { e.Post(d, Func(fn)) }

// Post fires ev after d cycles of virtual time. It may be called from event
// handlers and from Procs; calling it after Kill is a no-op.
func (e *Engine) Post(d Duration, ev Event) {
	if e.killed {
		return
	}
	e.checkSettled()
	e.seq++
	if d == 0 {
		e.fifo = append(e.fifo, ev)
		return
	}
	e.push(e.now+d, ev)
}

// checkSettled panics if the running proc schedules while it owes time
// (Proc.Charge). An event scheduled then would take a sequence number ahead
// of the owed charges' own events — a Wake, a timer or a message would
// overtake the time its sender has not spent yet, and the run would drift
// from the one a Sleep per charge produces without anything failing.
// Settle's own Post is exempt: by then the proc is replaying.
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

// push appends ev to the later lane at instant at, under the current seq:
// onto the run the tail cache names for at, or as a new run.
func (e *Engine) push(at Time, ev Event) {
	s := e.free
	if s == noSlot {
		s = int32(len(e.slots))
		e.slots = append(e.slots, slot{ev: ev, next: noSlot})
	} else {
		e.free = e.slots[s].next
		e.slots[s] = slot{ev: ev, next: noSlot}
	}
	c := &e.tails[at%tailCacheSize]
	if c.at == at {
		e.slots[c.slot].next = s
		c.slot = s
		return
	}
	*c = tail{at: at, slot: s}
	e.runPush(run{at: at, seq: e.seq, head: s})
}

// runPush inserts r into the 4-ary heap (sift-up with a hole, one final
// store instead of swaps).
func (e *Engine) runPush(r run) {
	h := append(e.runs, r)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !runLess(&r, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = r
	e.runs = h
}

// runPop removes the heap minimum (sift-down with a hole).
func (e *Engine) runPop() {
	h := e.runs
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	e.runs = h
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
				if runLess(&h[j], &h[min]) {
					min = j
				}
			}
			if !runLess(&h[min], &last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
}

// next executes the next event in (at, seq) order if there is one at or
// before t, and reports whether it did. It is the one pop path: Run and
// RunUntil are loops around it, so both enforce causality and the event
// limit and account alike. Lane events are at now; a later-lane event at the
// same instant has a lower seq and goes first (see the Engine doc).
func (e *Engine) next(t Time) bool {
	at := e.now
	var ev Event
	if e.fifoHead < len(e.fifo) && !(len(e.runs) > 0 && e.runs[0].at == e.now) {
		if e.now > t {
			return false
		}
		ev = e.fifo[e.fifoHead]
		e.fifo[e.fifoHead] = nil // release the event
		e.fifoHead++
		if e.fifoHead == len(e.fifo) {
			// Lane drained: rewind so the backing array is reused.
			e.fifo = e.fifo[:0]
			e.fifoHead = 0
		}
	} else {
		if len(e.runs) == 0 || e.runs[0].at > t {
			return false
		}
		// Take the top run's first event. The run keeps its key while it has
		// events left: they still precede every other run's.
		r := &e.runs[0]
		at = r.at
		s := r.head
		sl := &e.slots[s]
		ev = sl.ev
		if sl.next == noSlot {
			e.runPop()
		} else {
			r.head = sl.next
		}
		*sl = slot{next: e.free} // release the event
		e.free = s
	}
	if at < e.now {
		panic("sim: event queue went backwards")
	}
	if e.limit != 0 && e.executed >= e.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded (possible livelock)", e.limit))
	}
	e.now = at
	ev.Fire()
	e.executed++
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() { e.RunUntil(^Time(0)) }

// RunUntil executes events with timestamps <= t, advancing virtual time.
// It returns when the queue is empty or the next event is beyond t.
func (e *Engine) RunUntil(t Time) {
	for e.next(t) {
	}
}

// Pending returns the number of queued events. It walks the free slots, so
// it is for diagnostics, not for the hot path.
func (e *Engine) Pending() int {
	n := len(e.slots) + len(e.fifo) - e.fifoHead
	for s := e.free; s != noSlot; s = e.slots[s].next {
		n--
	}
	return n
}

// drain empties the queue, releasing the events but keeping the
// backing arrays so a pooled engine reuses its slabs. It clears the tail
// cache: a pooled engine's clock starts again at zero, where an old entry
// could match.
func (e *Engine) drain() {
	e.runs = e.runs[:0]
	clear(e.slots)
	e.slots = e.slots[:0]
	e.free = noSlot
	e.tails = [tailCacheSize]tail{}
	clear(e.fifo)
	e.fifo = e.fifo[:0]
	e.fifoHead = 0
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
	// false and unwinds the body, or was never started. stop returns once a
	// parked body has fully unwound — or at once if the proc has no body to
	// unwind — so the live-proc count is settled here, not in the body.
	for i, p := range e.procs {
		if !p.dead {
			p.stop()
			p.exit()
		}
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	e.fault = nil // a body that panicked for real while unwinding: nobody to tell
}

// LiveProcs returns the number of procs that have been spawned and have not
// yet exited. Useful to detect leaks in tests.
func (e *Engine) LiveProcs() int { return int(e.live.Load()) }
