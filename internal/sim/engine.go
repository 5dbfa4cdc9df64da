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
// The pending-event store has two lanes:
//
//   - heap: a monomorphic inline 4-ary min-heap over []event, ordered by
//     (at, seq), holding events scheduled for a strictly later instant.
//     No interface boxing, no container/heap indirection.
//   - fifo: the same-instant lane. Schedule(0, ...) — the storm generated by
//     Wake, Sleep(0) and Spawn — appends here instead of touching the heap.
//     Because seq only grows, appending keeps the lane sorted by (at, seq),
//     and popping is a head-index increment.
//
// The split preserves the global (at, seq) order exactly: lane events carry
// at == now, and any heap event at the same instant was necessarily scheduled
// before time advanced to that instant (while now was smaller), so its seq is
// lower than every lane event's — the heap drains first at each instant (see
// next). Time only advances while the lane is empty, so the lane never holds
// stale timestamps.
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
	heap     []event
	fifo     []event
	fifoHead int
	// procs registers the spawned procs so Kill can stop them; live counts
	// those that have not exited, for leak diagnostics.
	procs []*Proc
	live  atomic.Int64
	// fault carries a panic out of a proc body (Proc.run) to the step that
	// resumed it, which re-raises it on the goroutine driving the engine (and
	// therefore recoverable by callers such as the bench harness). One body
	// runs at a time and step looks as soon as it is back, so one slot does
	// for all procs.
	fault error
}

// NewEngine returns a ready-to-run engine with time at zero.
func NewEngine() *Engine { return &Engine{} }

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

// Schedule runs fn after d cycles of virtual time. It may be called from
// event handlers and from Procs; calling it after Kill is a no-op.
func (e *Engine) Schedule(d Duration, fn func()) {
	if e.killed {
		return
	}
	e.checkSettled()
	e.seq++
	if d == 0 {
		e.fifo = append(e.fifo, event{at: e.now, seq: e.seq, fn: fn})
		return
	}
	e.heapPush(event{at: e.now + d, seq: e.seq, fn: fn})
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

// heapPush inserts ev into the 4-ary heap (sift-up with a hole, one final
// store instead of swaps).
func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
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
	e.heap = h
}

// heapPop removes and returns the heap minimum (sift-down with a hole).
func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure
	h = h[:n]
	e.heap = h
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

// next executes the next event in (at, seq) order if there is one at or
// before t, and reports whether it did. It is the one pop path: Run and
// RunUntil are loops around it, so both enforce causality and the event
// limit and account alike. Lane events carry at == now; a heap event at the
// same instant has a lower seq and goes first (see the Engine doc).
func (e *Engine) next(t Time) bool {
	var ev event
	if e.fifoHead < len(e.fifo) && !(len(e.heap) > 0 && e.heap[0].at == e.now) {
		ev = e.fifo[e.fifoHead]
		if ev.at > t {
			return false
		}
		e.fifo[e.fifoHead].fn = nil // release the closure
		e.fifoHead++
		if e.fifoHead == len(e.fifo) {
			// Lane drained: rewind so the backing array is reused.
			e.fifo = e.fifo[:0]
			e.fifoHead = 0
		}
	} else {
		if len(e.heap) == 0 || e.heap[0].at > t {
			return false
		}
		ev = e.heapPop()
	}
	if ev.at < e.now {
		panic("sim: event queue went backwards")
	}
	if e.limit != 0 && e.executed >= e.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded (possible livelock)", e.limit))
	}
	e.now = ev.at
	ev.fn()
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

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.fifo) - e.fifoHead }

// drain empties the queue, releasing the event closures but keeping the
// backing arrays so a pooled engine reuses its slabs.
func (e *Engine) drain() {
	clear(e.heap)
	e.heap = e.heap[:0]
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
