//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a cooperative simulation process: a coroutine that runs under
// strict handoff with the engine. At any instant at most one of them (the
// engine or exactly one proc) executes, so simulations remain deterministic
// while protocol code can block naturally via Sleep, Park, or Future.Wait.
//
// Procs must only interact with the engine (Schedule, Wake, ...) from within
// their own body or from event handlers; the package is not safe for use
// from foreign OS threads.
//
// The handoff is a direct coroutine switch (iter.Pull, which rides
// runtime.coroswitch): step calls next, which runs the proc body on its own
// stack until it parks by calling yield, and control returns to the caller
// of next without a trip through the Go scheduler. The switch is
// synchronous in both directions — whoever drives the engine is blocked
// inside next while the body runs — so proc state needs no atomics,
// and Kill unwinds a parked proc by calling stop, which makes its pending
// yield return false. This file is the only one that needs the iter package
// (Go >= 1.23); the build constraint above lifts its language version while
// go.mod stays at 1.22.
type Proc struct {
	eng  *Engine
	name string
	// lazyName, when set, formats the name from nameArg on first use
	// (SpawnLazy).
	lazyName func(int) string
	nameArg  int
	// next resumes the body until it parks (true) or returns (false); stop
	// unwinds a parked body; yield, valid once the body has started, parks.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	// stepFn is p.step bound once at Spawn. Taking the method value inline
	// (e.Schedule(d, p.step)) would allocate a fresh closure on every
	// Sleep/Wake; binding it once makes the handoff allocation-free.
	stepFn func()
	// dead is set on the engine side, by step when the body returns and by
	// Kill, so it also covers procs whose body never started.
	dead bool
	// Owed time (Charge, Settle): owed[:nOwed] are the charges recorded since
	// the last settlement, in order; replayed counts how many of them step
	// has turned into events so far, and is non-zero only while the proc is
	// parked settling.
	nOwed    uint8
	replayed uint8
	// polling is set while step asks the proc's Waiter on the engine side
	// (poll): the proc has no stack to park there, so suspend refuses.
	polling bool
	owed    [maxOwed]Duration
	// wait is what the proc is parked on (ParkOn), nil when it is running or
	// parked for a plain wake-up; step evaluates it on the engine side.
	wait Waiter
}

// Waiter is what a parked proc waits for, stated as data instead of as a
// loop in the proc's body: Ready reports whether p may run on, and when it
// may not, registers p with whatever will Wake it. ParkOn calls Ready — and
// step calls it again at every wake-up, on the engine side, without switching
// into the body — so Ready does, in that event and in that order, exactly
// what the body would have done between waking and parking again: take the
// unit or the item, or queue up once more. A Waiter may chain several waits
// (a kernel thread's reply, next job, CPU) by remembering its stage.
//
// Ready may also do work that takes time, as long as it never blocks: it may
// Charge p and report false, and the charges are replayed one event each, as
// Settle replays them, before Ready is asked again. Such work is what the
// body would have done right after being switched in, so the events and their
// order are the same, and the body is not switched in for it. While p owes,
// Ready schedules nothing (Engine.checkSettled panics), and on the engine
// side it may not park p at all: Settle, Sleep, Park, ParkOn and a Charge at
// maxOwed panic there (suspend).
type Waiter interface {
	Ready(p *Proc) bool
}

// maxOwed is how many charges a proc can owe before Charge settles on its
// own. Seven cover a capability syscall end to end (dispatch, lookup, link,
// create, reply) with room to spare and keep a Proc within the 160-byte
// allocation size class; a longer stretch — a revocation walk —
// costs one park per seven charges instead of one each.
const maxOwed = 7

// killed is the panic value used to unwind a proc when its engine is killed.
type killed struct{}

// Spawn creates a proc running fn, starting at the current virtual time
// (after already-queued events at this timestamp). The name is used in
// diagnostics only. Spawning on a killed engine returns an already-dead proc
// whose body never runs.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := e.spawn(fn)
	p.name = name
	return p
}

// SpawnLazy is Spawn for spawn sites that would otherwise format a name per
// proc: name(arg) runs only if the name is read, which in practice means
// only when the proc panics. Formatter and argument are separate so that a
// site spawning many procs binds one formatter and passes each proc's index
// instead of building a closure per proc.
func (e *Engine) SpawnLazy(name func(arg int) string, arg int, fn func(p *Proc)) *Proc {
	p := e.spawn(fn)
	p.lazyName, p.nameArg = name, arg
	return p
}

// Arg returns the argument the proc was spawned with by SpawnLazy (0 for
// Spawn), so that one body bound once for many procs can tell which of
// them it is running as.
func (p *Proc) Arg() int { return p.nameArg }

// procBlock is how many proc records one allocation serves: 1 216 B, in the
// 1 280 B size class, 160 B a record as for one alone, and a run's last
// block leaves little unused.
const procBlock = 8

func (e *Engine) spawn(fn func(p *Proc)) *Proc {
	p := e.procRecs.New(procBlock)
	p.eng = e
	p.stepFn = p.step
	if e.killed {
		p.dead = true
		return p
	}
	e.procs = append(e.procs, p)
	e.live.Add(1)
	// The coroutine is created suspended: the body first runs when the
	// handoff scheduled below calls next. If the engine is killed before
	// that, stop ends it without fn ever running.
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	e.Schedule(0, p.stepFn)
	return p
}

// run is the proc body: fn, with the Kill unwind absorbed and a real panic
// turned into the fault that step re-raises.
func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killed); !ok {
				// Real panic in simulation code: hand it to the engine
				// side instead of letting it cross the coroutine boundary
				// bare, so it carries the proc name, and so a body that
				// panics while Kill unwinds it cannot make Kill panic.
				p.eng.fault = fmt.Errorf("sim: proc %q panicked: %v", p.Name(), r)
			}
		}
	}()
	fn(p)
}

// step transfers control to the proc and returns when it parks or exits.
// It must be called from the engine side (an event handler). Events cannot
// run after Kill (the queues are drained and Schedule is a no-op), so the
// proc on the other end is always parked-or-dead.
func (p *Proc) step() {
	if p.dead {
		return
	}
	if p.replayed < p.nOwed {
		// Settling, and the charge that just elapsed was not the last: the
		// next one starts now, as its own event — scheduled at the instant
		// and in the order Sleep would have scheduled it — and the proc
		// stays parked.
		d := p.owed[p.replayed]
		p.replayed++
		p.eng.Schedule(d, p.stepFn)
		return
	}
	// Everything owed has elapsed: the proc's clock is the engine's.
	p.nOwed, p.replayed = 0, 0
	if w := p.wait; w != nil {
		// Parked on a Waiter: ask it here, where the body would have looked
		// after being switched in, and switch in only if there is something
		// to run on for. A Ready that killed the engine has ended the proc. A
		// Ready that charged p did the body's work up to its next settle
		// point: that time elapses as Settle's would, and then w is asked
		// again.
		ready := p.poll(w)
		if p.dead {
			return
		}
		if !ready {
			if p.nOwed != 0 {
				p.startReplay()
			}
			return
		}
		p.wait = nil
	}
	p.eng.resumes++
	p.eng.running = p
	_, parked := p.next()
	p.eng.running = nil
	if parked {
		return
	}
	p.exit()
	if f := p.eng.fault; f != nil {
		p.eng.fault = nil
		panic(f)
	}
}

// poll is w.Ready on the engine side. The code in there used to be the
// proc's body, so it runs as the body would: p is the running proc, and
// scheduling while it owes panics (Engine.checkSettled). A panic in it is
// reported the way run reports a body's: wrapped with the proc's name, raised
// on the goroutine driving the engine. The proc stays parked where it was;
// Kill unwinds it like any other.
func (p *Proc) poll(w Waiter) bool {
	e := p.eng
	e.running, p.polling = p, true
	defer func() {
		e.running, p.polling = nil, false
		if r := recover(); r != nil {
			panic(fmt.Errorf("sim: proc %q panicked: %v", p.Name(), r))
		}
	}()
	return w.Ready(p)
}

// exit does the engine-side accounting for a proc whose body is over, and
// drops the coroutine: the engine's registry keeps the Proc until Kill, and
// the closures would keep fn and everything it captured alive with it.
func (p *Proc) exit() {
	p.dead = true
	p.eng.live.Add(-1)
	p.next, p.stop, p.yield, p.wait = nil, nil, nil, nil
}

// park blocks the proc until something wakes it. A proc that owes time must
// settle before it waits for anybody else — step would take the wake-up for
// the first owed charge having elapsed — so parking with charges pending
// panics instead.
func (p *Proc) park() {
	if p.nOwed != 0 {
		panic("sim: proc parks with unsettled charges")
	}
	p.suspend()
}

// suspend hands control back to the engine and blocks until resumed. Once
// Kill has stopped the proc, yield returns false at once and suspend unwinds
// instead — also when a proc defer parks again (e.g. a cleanup Sleep) while
// the proc is already unwinding. What the proc owed dies with it. A Waiter's
// Ready on the engine side is not in the body's coroutine and cannot park it:
// everything that blocks ends here, so here it panics.
func (p *Proc) suspend() {
	if p.polling {
		panic("sim: proc parks inside Waiter.Ready on the engine side")
	}
	if !p.yield(struct{}{}) {
		p.nOwed, p.replayed = 0, 0
		panic(killed{})
	}
}

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string {
	if p.lazyName != nil {
		p.name, p.lazyName = p.lazyName(p.nameArg), nil
	}
	return p.name
}

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the proc's current virtual time: the engine's clock plus
// whatever the proc owes — the time it would read had every Charge been a
// Sleep.
func (p *Proc) Now() Time {
	t := p.eng.now
	for _, d := range p.owed[:p.nOwed] {
		t += d
	}
	return t
}

// Sleep blocks the proc for d cycles of virtual time, after settling what it
// owes: it is Charge(d) settled at once. Sleep(0) yields: the proc resumes
// at the same timestamp, after the events already queued for this instant.
func (p *Proc) Sleep(d Duration) {
	p.Charge(d)
	p.Settle()
}

// Charge records that the proc spends d cycles and returns at once; the time
// passes when the proc settles. Charge(a); Charge(b); Settle() is
// Sleep(a); Sleep(b) — the same events with the same (time, sequence) — minus
// the switch into and out of the proc between the two, provided that between
// a charge and its settlement the proc touches only state no other proc or
// event handler reads, and schedules nothing: what it does there runs, in
// host order, before events that Sleep would have let run first.
//
// Everything in this package that blocks settles first; code that publishes
// by other means (a Queue.Push, a Wake, a NoC send, a write to shared state)
// calls Settle itself. Half of the proviso is enforced: scheduling anything
// while owing panics (Engine.checkSettled), and so does parking. The other
// half — plain reads and writes of shared state — is the caller's to audit.
//
// A zero-cycle charge is still a charge: Sleep(0) is an event and a place in
// the same-instant order. When the proc already owes maxOwed charges, Charge
// settles them first.
func (p *Proc) Charge(d Duration) {
	if p.nOwed == maxOwed {
		p.Settle()
	}
	p.owed[p.nOwed] = d
	p.nOwed++
}

// Settle parks the proc once until everything it owes has elapsed. The
// engine side replays the charges one event each (step), every one scheduled
// when the previous fires, so the event sequence is the one a Sleep per
// charge produces. They are never summed into one event: Sleep(a); Sleep(b)
// takes its place in the order of instant now+a when a has elapsed, and a
// single Sleep(a+b) would take it now — a different tie-break against every
// event another party schedules for now+a+b in between.
func (p *Proc) Settle() {
	if p.nOwed != 0 {
		p.replay()
	}
}

// replay starts the first owed charge and parks; step replays the rest,
// clears the debt and — unless the proc waits for more (ParkOn) — resumes it.
func (p *Proc) replay() {
	p.startReplay()
	p.suspend()
}

// startReplay schedules the first owed charge, as the event Sleep would have
// scheduled for it.
func (p *Proc) startReplay() {
	p.replayed = 1
	p.eng.Schedule(p.owed[0], p.stepFn)
}

// ParkOn blocks the proc until w is ready, after settling what it owes: the
// one wait loop of this package. With nothing owed it asks w at once, in the
// body, and returns without parking if w is ready. Otherwise it parks once;
// step replays the owed charges exactly as for Settle, asks w at the event
// where the last of them elapses and again at every Wake, and switches back
// into the body only when w says so. "Settle, then look; woken, look again"
// is what each blocking primitive's loop did — the looking now happens
// without the proc being resumed for it. A Ready that charges p (Waiter) is
// replayed and asked again here too.
func (p *Proc) ParkOn(w Waiter) {
	if p.nOwed == 0 && w.Ready(p) {
		return
	}
	p.wait = w
	if p.nOwed != 0 {
		p.replay()
	} else {
		p.suspend()
	}
}

// Park blocks the proc until some event handler calls Wake, after settling
// what it owes. A proc parked this way and never woken leaks until
// Engine.Kill.
func (p *Proc) Park() {
	p.Settle()
	p.park()
}

// Wake schedules the proc to resume at the current virtual time. It must be
// called from the engine side or from another proc; waking an unparked or
// dead proc is a bug and will desynchronize the handoff protocol, so callers
// must track parked state (Future and Semaphore do this for you).
func (p *Proc) Wake() {
	p.eng.Schedule(0, p.stepFn)
}
