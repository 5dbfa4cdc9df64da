package sim

import "testing"

// Micro-benchmarks for the hot simulation paths. The acceptance bar of the
// event-queue rebuilds: the Sleep/Wake handoff path allocates nothing per
// simulated event (it used to pay a method-value closure plus an
// interface-boxed heap push per Schedule), schedule+run throughput is bounded
// by the later lane's inline heap of runs, not container/heap indirection,
// and events that share an instant share one heap entry.
//
// Run with:
//
//	go test -bench . -benchmem ./internal/sim

// BenchmarkScheduleRun measures raw event-queue throughput: schedule a
// batch with mixed delays (delay 0 exercises the same-instant lane), then
// drain it. One op = one event through the queue.
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := uint64(0x9E3779B97F4A7C15)
	nop := func() {}
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		for i := 0; i < batch; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			e.Schedule(Duration(rng%64), nop)
		}
		e.Run()
	}
}

// BenchmarkScheduleRunHeapOnly is the later-lane-only variant (no delay-0
// events), isolating the heap of runs from the FIFO lane.
func BenchmarkScheduleRunHeapOnly(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	rng := uint64(0x9E3779B97F4A7C15)
	nop := func() {}
	const batch = 1024
	for done := 0; done < b.N; done += batch {
		for i := 0; i < batch; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			e.Schedule(1+Duration(rng%64), nop)
		}
		e.Run()
	}
}

// steadyPending is the number of events the steady-state benchmarks keep
// pending: about what the scale sweep's machine holds on average (418).
const steadyPending = 400

// benchSteady keeps steadyPending self-rescheduling events in the later
// lane: event i first runs at first(i) and then reschedules itself delay()
// cycles after each run. Each is a record posted with Post, as the
// simulator's own recurring events are (a proc's step, a wire, a timer), not
// a func. One op is one event through the queue; the untimed tail drains
// the last steadyPending.
func benchSteady(b *testing.B, first func(i int) Duration, delay func() Duration) {
	b.ReportAllocs()
	st := &steady{e: NewEngine(), b: b, left: b.N, delay: delay}
	for i := range st.evs {
		st.evs[i].st = st
		st.e.Post(first(i), &st.evs[i])
	}
	b.ResetTimer()
	st.e.Run()
}

// steady is benchSteady's state: the events and how many are left to run.
type steady struct {
	e     *Engine
	b     *testing.B
	left  int
	delay func() Duration
	evs   [steadyPending]steadyEvent
}

// steadyEvent is one of benchSteady's pending events.
type steadyEvent struct{ st *steady }

func (ev *steadyEvent) Fire() {
	st := ev.st
	if st.left == 0 {
		return
	}
	if st.left--; st.left == 0 {
		st.b.StopTimer()
	}
	st.e.Post(st.delay(), ev)
}

// BenchmarkSteadyTiedInstants is the scale sweep's shape: clients in
// lockstep, so the pending events sit on few instants — 16 here, 25 events
// each.
func BenchmarkSteadyTiedInstants(b *testing.B) {
	benchSteady(b,
		func(i int) Duration { return 1 + Duration(i%16) },
		func() Duration { return 16 })
}

// BenchmarkSteadyDistinctInstants is the application runs' shape: nearly
// every pending event at an instant of its own (delays drawn from
// 1..65536), so every event is a run of one. It is the bar for the path
// without ties.
func BenchmarkSteadyDistinctInstants(b *testing.B) {
	rng := uint64(0x9E3779B97F4A7C15)
	delay := func() Duration {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return 1 + Duration(rng%(1<<16))
	}
	benchSteady(b, func(int) Duration { return delay() }, delay)
}

// BenchmarkProcHandoff measures the Sleep/Wake path: one op is one full
// proc handoff (Schedule of the pre-bound step, park, resume). This is the
// path every simulated syscall, IKC and DTU transfer rides on.
func BenchmarkProcHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Kill()
}

// BenchmarkProcChargeSettle is BenchmarkProcHandoff with owed time: one op is
// still one cost term and one event, but the proc charges four terms and
// settles once, so three of every four switches into and out of the body are
// gone. The difference to BenchmarkProcHandoff is what a kernel thread saves
// per term it charges instead of sleeping.
func BenchmarkProcChargeSettle(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < n; i += 4 {
			p.Charge(1)
			p.Charge(1)
			p.Charge(1)
			p.Charge(1)
			p.Settle()
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Kill()
}

// BenchmarkProcParkOn is one wait evaluated by the engine: the proc parks on
// a waiter, is woken and found not ready — the barged semaphore waiter, the
// kernel thread whose job is there but whose CPU is not — queues up again, is
// woken again, found ready and switched in. Two events and one switch; with
// the wait loop in the proc's body it was two of each (BenchmarkProcHandoff
// is the price of one).
func BenchmarkProcParkOn(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	w := &stageWaiter{misses: 2, wake: (*Proc).Wake}
	e.Spawn("bench", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.ParkOn(w)
		}
	})
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	e.Kill()
}

// BenchmarkWakeStorm measures the same-instant lane under the pattern that
// motivated it: many parked procs woken at one timestamp, FIFO.
func BenchmarkWakeStorm(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const nProcs = 64
	n := b.N
	procs := make([]*Proc, nProcs)
	rounds := make([]int, nProcs)
	for i := 0; i < nProcs; i++ {
		i := i
		procs[i] = e.Spawn("storm", func(p *Proc) {
			for rounds[i] > 0 {
				rounds[i]--
				p.Park()
			}
		})
	}
	perProc := n/nProcs + 1
	for i := range rounds {
		rounds[i] = perProc
	}
	var tick func()
	left := perProc
	tick = func() {
		for _, p := range procs {
			p.Wake()
		}
		left--
		if left > 0 {
			e.Schedule(1, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
	b.StopTimer()
	e.Kill()
}

// BenchmarkQueuePushPop measures the Queue under the kernel thread-pool
// pattern: an event handler pushes a job, the parked consumer proc is woken,
// pops it and parks again. One op is one element through the queue,
// including the consumer's two switches; in steady state neither the items
// nor the waiter list allocate.
func BenchmarkQueuePushPop(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	q := NewQueue[int]()
	n := b.N
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.Pop(p)
		}
	})
	left := n
	var produce func()
	produce = func() {
		q.Push(left)
		if left--; left > 0 {
			e.Schedule(1, produce)
		}
	}
	e.Schedule(1, produce)
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	if live := e.LiveProcs(); live != 0 {
		b.Fatalf("consumer still live after %d pops", n)
	}
	e.Kill()
}

// BenchmarkPoolReuse measures the per-experiment engine cost the harness
// pays: one op is one short simulated task on a pool-recycled engine
// (Get, schedule/run a small workload with procs, Put).
func BenchmarkPoolReuse(b *testing.B) {
	b.ReportAllocs()
	pool := NewPool()
	nop := func() {}
	for i := 0; i < b.N; i++ {
		e := pool.Get()
		for j := 0; j < 32; j++ {
			e.Schedule(Duration(j%8), nop)
		}
		e.Spawn("task", func(p *Proc) {
			for k := 0; k < 8; k++ {
				p.Sleep(2)
			}
		})
		e.Run()
		pool.Put(e)
	}
}

// BenchmarkEngineFresh is BenchmarkPoolReuse without the pool: a brand-new
// engine per task, for comparison.
func BenchmarkEngineFresh(b *testing.B) {
	b.ReportAllocs()
	nop := func() {}
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 32; j++ {
			e.Schedule(Duration(j%8), nop)
		}
		e.Spawn("task", func(p *Proc) {
			for k := 0; k < 8; k++ {
				p.Sleep(2)
			}
		})
		e.Run()
		e.Kill()
	}
}
