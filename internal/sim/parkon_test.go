package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The wait loops ParkOn replaced, kept as the reference of the differential
// test below: settle, then look; park, and look again when woken.

func refAcquire(s *Semaphore, p *Proc) {
	p.Settle()
	for s.count == 0 {
		s.waiters.Push(p)
		p.park()
	}
	s.count--
}

func refPop[T any](q *Queue[T], p *Proc) T {
	p.Settle()
	for q.items.Len() == 0 {
		q.waiters.Push(p)
		p.park()
	}
	return q.items.Pop()
}

func refWait[T any](f *Future[T], p *Proc) T {
	p.Settle()
	for !f.done {
		if f.first == nil {
			f.first = p
		} else {
			f.more = append(f.more, p)
		}
		p.park()
	}
	return f.val
}

func refWaitGroup(wg *WaitGroup, p *Proc) {
	p.Settle()
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		p.park()
	}
}

// parkOnScenario sets up groups independent copies of one randomized
// scenario on e and returns each group's trace of visible happenings. Per
// group: consumers on one shared
// queue fed by timers; contenders on one semaphore that hold it for a few
// charged terms and, every other turn, release and take it again in one go
// (the barging case: the waiter woken by the release finds nothing);
// waiters on futures that complete on the very instant the waiter's last
// charge elapses, or a little later; a waiter on a WaitGroup of timers; and
// plain timers. Every proc blocks while owing time, and the delays are drawn
// from a few small values, so wake-ups, completions and elapsing charges
// keep sharing instants. With ref set the procs block through the
// hand-written loops above, without through ParkOn; nothing else differs.
func parkOnScenario(seed uint64, ref bool, e *Engine, groups int) [][]traceRec {
	const rounds = 30
	rng := seed*0x9E3779B97F4A7C15 + 1
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	delays := []Duration{0, 0, 1, 1, 2, 3, 3, 5}
	delay := func() Duration { return delays[next(uint64(len(delays)))] }
	plan := func(n int) []Duration {
		ds := make([]Duration, n)
		for i := range ds {
			ds[i] = delay()
		}
		return ds
	}

	acquire := func(s *Semaphore, p *Proc) { s.Acquire(p) }
	pop := func(q *Queue[int], p *Proc) int { return q.Pop(p) }
	wait := func(f *Future[int], p *Proc) int { return f.Wait(p) }
	waitGroup := func(wg *WaitGroup, p *Proc) { wg.Wait(p) }
	if ref {
		acquire, pop, wait, waitGroup = refAcquire, refPop[int], refWait[int], refWaitGroup
	}

	traces := make([][]traceRec, groups)
	for di := 0; di < groups; di++ {
		di := di
		log := func(at Time, format string, args ...any) {
			traces[di] = append(traces[di], traceRec{at, fmt.Sprintf(format, args...)})
		}

		// Consumers on a shared queue, producers on timers.
		q := NewQueue[int]()
		for i := 0; i < 3; i++ {
			i, ds := i, plan(2*rounds)
			e.Spawn("consumer", func(p *Proc) {
				for j := 0; ; j++ {
					v := pop(q, p)
					log(p.Now(), "consumer %d got %d", i, v)
					p.Charge(ds[j%len(ds)]) // owed into the next Pop
				}
			})
		}
		for i := 0; i < 2; i++ {
			i, ds, j := i, plan(2*rounds), 0
			var produce func()
			produce = func() {
				q.Push(100*i + j)
				if j++; j < len(ds) {
					e.Schedule(ds[j], produce)
				}
			}
			e.Schedule(1+ds[0], produce)
		}

		// Contenders on a semaphore.
		sem := NewSemaphore(1)
		for i := 0; i < 4; i++ {
			i, think, hold := i, plan(rounds), plan(2*rounds)
			e.Spawn("contender", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					p.Charge(think[r])
					acquire(sem, p)
					log(p.Now(), "contender %d holds (round %d)", i, r)
					p.Charge(hold[2*r])
					p.Charge(hold[2*r+1])
					p.Settle()
					sem.Release()
					if r%2 == 0 {
						acquire(sem, p) // barges past the waiter Release just woke
						log(p.Now(), "contender %d holds again (round %d)", i, r)
						p.Sleep(hold[2*r])
						sem.Release()
					}
				}
			})
		}

		// Waiters on futures completed on, or near, the instant their last
		// charge elapses.
		for i := 0; i < 2; i++ {
			i, ds, late := i, plan(2*rounds), plan(rounds)
			e.Spawn("waiter", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					f := NewFuture[int](e)
					a, b := ds[2*r], ds[2*r+1]
					if r%3 == 0 {
						late[r] = 0
					}
					e.Schedule(a+b+late[r], func() { f.Complete(r) })
					p.Charge(a)
					p.Charge(b)
					log(p.Now(), "waiter %d got %d", i, wait(f, p))
				}
			})
		}

		// A WaitGroup of timers, waited for while owing.
		{
			ds := plan(3 * rounds)
			e.Spawn("joiner", func(p *Proc) {
				for r := 0; r < rounds; r++ {
					var wg WaitGroup
					wg.Add(2)
					e.Schedule(ds[3*r], wg.Done)
					e.Schedule(ds[3*r+1], wg.Done)
					p.Charge(ds[3*r+2])
					waitGroup(&wg, p)
					log(p.Now(), "joiner round %d", r)
				}
			})
		}

		// Timers on the same instants.
		for i := 0; i < 2; i++ {
			i, ds, j := i, plan(3*rounds), 0
			var tick func()
			tick = func() {
				log(e.Now(), "timer %d tick %d", i, j)
				if j++; j < len(ds) {
					e.Schedule(1+ds[j], tick)
				}
			}
			e.Schedule(1+ds[0], tick)
		}
	}
	return traces
}

// TestParkOnMatchesWaitLoops is the order-preservation claim of ParkOn as a
// differential test, owed_test.go's one step further: the same scenario with
// every wait written as a loop in the proc's body and with every wait
// evaluated by the engine produces the identical (time, label) trace and
// executes the identical number of events — and resumes procs fewer times.
func TestParkOnMatchesWaitLoops(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		run := func(ref bool) ([]traceRec, uint64, uint64) {
			e := NewEngine()
			defer e.Kill()
			tr := parkOnScenario(seed, ref, e, 1)
			e.Run()
			return tr[0], e.Executed(), e.Resumes()
		}
		loops, lExec, lRes := run(true)
		parked, pExec, pRes := run(false)
		what := fmt.Sprintf("seed %d", seed)
		diffTraces(t, what, loops, parked)
		if lExec != pExec {
			t.Fatalf("%s: %d events with loops, %d with ParkOn", what, lExec, pExec)
		}
		if pRes >= lRes {
			t.Fatalf("%s: %d resumes with loops, %d with ParkOn: nothing saved", what, lRes, pRes)
		}
		if len(loops) < 500 {
			t.Fatalf("%s: only %d trace entries, the scenario did not run", what, len(loops))
		}
	}
}

// TestParkOnMatchesWaitLoopsInterleaved is the same claim with three groups
// sharing the engine's instants and its one sequence counter.
func TestParkOnMatchesWaitLoopsInterleaved(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		run := func(ref bool) ([][]traceRec, uint64, uint64) {
			e := NewEngine()
			defer e.Kill()
			tr := parkOnScenario(seed, ref, e, 3)
			e.Run()
			return tr, e.Executed(), e.Resumes()
		}
		loops, lExec, lRes := run(true)
		parked, pExec, pRes := run(false)
		for d := range loops {
			diffTraces(t, fmt.Sprintf("seed %d group %d", seed, d), loops[d], parked[d])
		}
		if lExec != pExec || pRes >= lRes {
			t.Fatalf("seed %d: %d events, %d resumes with loops; %d, %d with ParkOn", seed, lExec, lRes, pExec, pRes)
		}
	}
}

// TestSemaphoreBargeKeepsTodaysOrder pins the barging rule (Semaphore): a
// proc that releases and acquires again in one go keeps the unit; the waiter
// its release woke finds nothing and goes to the tail, behind everybody who
// was waiting already.
func TestSemaphoreBargeKeepsTodaysOrder(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	s := NewSemaphore(1)
	var got []string
	e.Spawn("a", func(p *Proc) {
		s.Acquire(p)
		p.Sleep(5) // b, then c, queue up
		s.Release()
		s.Acquire(p) // takes the unit b was woken for
		got = append(got, "a again")
		p.Sleep(5)
		s.Release()
	})
	for _, name := range []string{"b", "c"} {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(1)
			s.Acquire(p)
			got = append(got, name)
			s.Release()
		})
	}
	e.Run()
	if order := strings.Join(got, ","); order != "a again,c,b" {
		t.Fatalf("acquisition order %q, want a again,c,b: the barged waiter re-queues at the tail", order)
	}
	// Three each: started, slept, and — for b and c — got the unit. b was
	// woken twice for that and switched in once.
	if e.Resumes() != 9 {
		t.Fatalf("%d resumes, want 9", e.Resumes())
	}
}

// stageWaiter is a Waiter with stages, the shape of a kernel thread's wait
// record: not ready the first n times it is asked after arming, registering
// itself for the next wake-up each time.
type stageWaiter struct {
	misses, asked int
	wake          func(p *Proc)
}

func (w *stageWaiter) Ready(p *Proc) bool {
	if w.asked < w.misses {
		w.asked++
		w.wake(p)
		return false
	}
	w.asked = 0
	return true
}

// TestParkOnEvaluatesOnTheEngineSide: however often the waiter says no, the
// proc is switched in once; and with nothing owed and a ready waiter, not
// parked at all.
func TestParkOnEvaluatesOnTheEngineSide(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	w := &stageWaiter{misses: 3, wake: func(p *Proc) { p.eng.Schedule(2, p.stepFn) }}
	var woke Time
	e.Spawn("p", func(p *Proc) {
		p.Charge(4)
		p.Charge(6)
		p.ParkOn(w) // asked at 10, 12, 14 and — ready — at 16
		woke = p.Now()
		w.misses = 0
		p.ParkOn(w) // ready at once: no park
	})
	e.Run()
	if woke != 16 || e.LiveProcs() != 0 {
		t.Fatalf("resumed at %d with %d procs live; want 16, 0", woke, e.LiveProcs())
	}
	// Events: start, two charges, three wake-ups. Resumes: start, ready.
	if e.Executed() != 6 || e.Resumes() != 2 {
		t.Fatalf("%d events, %d resumes; want 6, 2", e.Executed(), e.Resumes())
	}
}

// TestParkOnAllocatesNothing: the waiter is an interface word pair in the
// Proc; parking on one — through the owed charges, two refusals and the
// switch back in — allocates nothing.
func TestParkOnAllocatesNothing(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	start := NewQueue[struct{}]()
	w := &stageWaiter{misses: 2, wake: (*Proc).Wake}
	e.Spawn("p", func(p *Proc) {
		for {
			start.Pop(p)
			p.Charge(1)
			p.ParkOn(w)
		}
	})
	step := func() {
		start.Push(struct{}{})
		e.Run()
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("a ParkOn round trip allocates %v times, want 0", allocs)
	}
}

// TestReadyPanicCarriesProcName: code that moved from a proc's body into its
// Waiter panics on the engine's goroutine; step reports it like a body's
// panic — named, recoverable — and the proc, still parked, dies with Kill.
func TestReadyPanicCarriesProcName(t *testing.T) {
	for _, owing := range []bool{false, true} {
		e := NewEngine()
		w := &stageWaiter{misses: 1, wake: func(p *Proc) { p.eng.Schedule(3, p.stepFn) }}
		e.Spawn("k3/sys2", func(p *Proc) {
			if owing {
				p.Charge(2)
			}
			p.ParkOn(w)
			t.Error("resumed past a waiter that panicked")
		})
		e.Spawn("bystander", func(p *Proc) { p.Park() })
		// The first Ready (in the body, or at the charge's event) registers a
		// wake-up; the second, at that wake-up, is engine side either way.
		e.Schedule(1, func() { w.wake = func(*Proc) { panic("boom") }; w.misses = 9 })
		var got any
		func() {
			defer func() { got = recover() }()
			e.Run()
		}()
		err, ok := got.(error)
		if !ok || err.Error() != `sim: proc "k3/sys2" panicked: boom` {
			t.Fatalf("owing=%v: Run panicked with %v, want the fault naming the proc", owing, got)
		}
		if e.LiveProcs() != 2 {
			t.Fatalf("owing=%v: %d procs live after the fault, want 2 (it stays parked)", owing, e.LiveProcs())
		}
		e.Kill()
		if e.LiveProcs() != 0 {
			t.Fatalf("owing=%v: %d procs live after Kill", owing, e.LiveProcs())
		}
	}
}

// TestKillFromInsideReady: a Waiter that ends the simulation while step is
// asking it — the engine side may call Kill — leaves a dead proc behind, and
// neither step nor Kill trips over it.
func TestKillFromInsideReady(t *testing.T) {
	e := NewEngine()
	w := &stageWaiter{misses: 1, wake: func(p *Proc) { p.eng.Schedule(1, p.stepFn) }}
	unwound := false
	e.Spawn("p", func(p *Proc) {
		defer func() { unwound = true }()
		p.ParkOn(w)
		t.Error("resumed after Kill")
	})
	e.Schedule(0, func() { w.misses, w.wake = 9, func(p *Proc) { p.eng.Kill() } })
	e.Run()
	if !unwound || e.LiveProcs() != 0 {
		t.Fatalf("unwound=%v, %d procs live; want true, 0", unwound, e.LiveProcs())
	}
	e.Kill()
}

// TestKillProcsParkedOnWaiters: procs parked on every kind of Waiter, owing
// and not, unwind with Kill, and the engine goes round the pool.
func TestKillProcsParkedOnWaiters(t *testing.T) {
	pool := NewPool()
	for round := 0; round < 3; round++ {
		e := pool.Get()
		s := NewSemaphore(0)
		q := NewQueue[int]()
		f := NewFuture[int](e)
		var wg WaitGroup
		wg.Add(1)
		never := &stageWaiter{misses: 1 << 30, wake: func(*Proc) {}}
		for _, w := range []Waiter{s, q, f, &wg, never} {
			w := w
			for _, owe := range []Duration{0, 3, 1000} {
				owe := owe
				e.Spawn("parked", func(p *Proc) {
					if owe > 0 {
						p.Charge(owe)
					}
					p.ParkOn(w)
					t.Error("resumed")
				})
			}
		}
		e.RunUntil(10) // the third of each is still settling
		if got := e.LiveProcs(); got != 15 {
			t.Fatalf("round %d: %d procs live, want 15", round, got)
		}
		e.Kill()
		if got := e.LiveProcs(); got != 0 {
			t.Fatalf("round %d: %d procs live after Kill", round, got)
		}
		pool.Put(e)
	}
}

// workRecord is a Waiter of a kernel thread's shape that does work itself:
// the next job off a shared queue, the one unit of a semaphore (the CPU),
// then the job — a few charged terms — and an epilogue that logs and gives
// the unit back. A job that blocks in the middle is the body's to run; with
// inline set, Ready runs every other one itself, engine side, charging the
// parked proc and reporting false. Without, Ready reports ready and the body
// runs every job: that is the reference.
type workRecord struct {
	id     int
	q      *Queue[recordJob]
	cpu    *Semaphore
	inline bool
	log    func(at Time, format string, args ...any)
	stage  int // 0: the next job; 1: the CPU for it; 2: its epilogue
	job    recordJob
}

type recordJob struct {
	n     int
	terms []Duration
	block Duration // > 0: the job sleeps this long after its terms
}

func (w *workRecord) Ready(p *Proc) bool {
	for {
		switch w.stage {
		case 0:
			if !w.q.Ready(p) {
				return false
			}
			w.job, _ = w.q.TryPop()
			w.stage = 1
		case 1:
			if !w.cpu.Ready(p) {
				return false
			}
			if !w.inline || w.job.block > 0 {
				return true
			}
			w.work(p)
			w.stage = 2
			return false
		case 2:
			w.log(p.eng.Now(), "worker %d done with job %d", w.id, w.job.n)
			w.cpu.Release()
			w.stage = 0
		}
	}
}

// work is the job, wherever it runs: the terms are charged, and a blocking
// job then sleeps with the CPU held. The private reading of the clock is
// logged where the body would have taken it.
func (w *workRecord) work(p *Proc) {
	w.log(p.Now(), "worker %d starts job %d", w.id, w.job.n)
	for _, d := range w.job.terms {
		p.Charge(d)
	}
	if w.job.block > 0 {
		p.Sleep(w.job.block)
	}
}

// chargingScenario sets up groups copies of a seeded machine of three
// workers parked on their records, jobs pushed by timers onto their shared
// queue, a contender that takes the CPU now and then through Acquire, and
// timers on the same instants. A blocking job ends on its sleep, so the body
// that ran it owes nothing when it parks on its record again, and that
// record's Ready — in the body — runs the next job itself.
func chargingScenario(seed uint64, inline bool, e *Engine, groups int) [][]traceRec {
	const jobs = 60
	rng := seed*0x9E3779B97F4A7C15 + 7
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	delays := []Duration{0, 0, 1, 1, 2, 3, 5}
	delay := func() Duration { return delays[next(uint64(len(delays)))] }

	traces := make([][]traceRec, groups)
	for g := 0; g < groups; g++ {
		g := g
		log := func(at Time, format string, args ...any) {
			traces[g] = append(traces[g], traceRec{at, fmt.Sprintf(format, args...)})
		}
		q := NewQueue[recordJob]()
		cpu := NewSemaphore(1)
		for i := 0; i < 3; i++ {
			w := &workRecord{id: i, q: q, cpu: cpu, inline: inline, log: log}
			e.Spawn("worker", func(p *Proc) {
				for {
					p.ParkOn(w)
					w.work(p)
					w.stage = 2
				}
			})
		}
		js, gaps := make([]recordJob, jobs), make([]Duration, jobs)
		for n := range js {
			js[n] = recordJob{n: n, terms: make([]Duration, 1+next(5))}
			for i := range js[n].terms {
				js[n].terms[i] = delay()
			}
			if next(4) == 0 {
				js[n].block = 1 + delay()
			}
			gaps[n] = delay()
		}
		var push func()
		pushed := 0
		push = func() {
			q.Push(js[pushed])
			if pushed++; pushed < len(js) {
				e.Schedule(gaps[pushed], push)
			}
		}
		e.Schedule(1+gaps[0], push)
		think := make([]Duration, jobs/4)
		for i := range think {
			think[i] = 1 + 2*delay()
		}
		e.Spawn("contender", func(p *Proc) {
			for r, d := range think {
				p.Sleep(d)
				cpu.Acquire(p)
				log(p.Now(), "contender holds (round %d)", r)
				p.Charge(think[len(think)-1-r])
				p.Settle()
				cpu.Release()
			}
		})
		ticks := make([]Duration, 2*jobs)
		for i := range ticks {
			ticks[i] = 1 + delay()
		}
		j := 0
		var tick func()
		tick = func() {
			log(e.Now(), "tick %d", j)
			if j++; j < len(ticks) {
				e.Schedule(ticks[j], tick)
			}
		}
		e.Schedule(ticks[0], tick)
	}
	return traces
}

// TestChargingReadyMatchesBody is the claim of a Waiter that does work as a
// differential test: jobs run by the record's Ready, engine side or in the
// body's ParkOn, against the same jobs run by the switched-in body, alone on
// the engine and as three groups on it. The traces and the events are the
// same; the resumes are fewer.
func TestChargingReadyMatchesBody(t *testing.T) {
	for _, groups := range []int{1, 3} {
		for seed := uint64(1); seed <= 20; seed++ {
			run := func(inline bool) ([][]traceRec, uint64, uint64) {
				e := NewEngine()
				defer e.Kill()
				tr := chargingScenario(seed, inline, e, groups)
				e.Run()
				return tr, e.Executed(), e.Resumes()
			}
			body, bExec, bRes := run(false)
			rec, rExec, rRes := run(true)
			for g := range body {
				what := fmt.Sprintf("%d group(s), seed %d, group %d", groups, seed, g)
				diffTraces(t, what, body[g], rec[g])
				if jobs := strings.Count(fmt.Sprint(body[g]), "done with job"); jobs != 60 {
					t.Fatalf("%s: %d jobs done, want 60", what, jobs)
				}
			}
			if bExec != rExec || rRes >= bRes {
				t.Fatalf("%d group(s), seed %d: %d events, %d resumes with the body; %d, %d with the record",
					groups, seed, bExec, bRes, rExec, rRes)
			}
		}
	}
}

// readyDoes is a Waiter that is not ready when the body first asks, and
// does act when step asks it at the wake-up it registered for.
type readyDoes struct {
	asked bool
	act   func(p *Proc)
}

func (w *readyDoes) Ready(p *Proc) bool {
	if !w.asked {
		w.asked = true
		p.eng.Schedule(1, p.stepFn)
		return false
	}
	w.act(p)
	return false
}

// TestReadyMayNotParkOrScheduleWhileOwing: on the engine side a Ready has
// no stack to park the proc on, and every way of parking there — Settle,
// Sleep, Park, ParkOn, a Charge past maxOwed — panics with a message naming
// it, as does scheduling while the proc owes time; the proc stays parked
// where it was and Kill unwinds it.
func TestReadyMayNotParkOrScheduleWhileOwing(t *testing.T) {
	const parks = "sim: proc parks inside Waiter.Ready on the engine side"
	const schedules = "sim: proc schedules with unsettled charges"
	for _, tc := range []struct {
		name, want string
		act        func(p *Proc)
	}{
		{"settle", parks, func(p *Proc) { p.Charge(2); p.Settle() }},
		{"sleep", parks, func(p *Proc) { p.Sleep(2) }},
		{"park", parks, func(p *Proc) { p.Park() }},
		{"parkon", parks, func(p *Proc) { p.ParkOn(&stageWaiter{misses: 1, wake: (*Proc).Wake}) }},
		{"charge past maxOwed", parks, func(p *Proc) {
			for i := 0; i <= maxOwed; i++ {
				p.Charge(1)
			}
		}},
		{"schedule while owing", schedules, func(p *Proc) { p.Charge(2); p.eng.Schedule(1, func() {}) }},
		{"wake while owing", schedules, func(p *Proc) { p.Charge(2); p.Wake() }},
	} {
		e := NewEngine()
		w := &readyDoes{act: tc.act}
		e.Spawn("k0/sys1", func(p *Proc) {
			p.ParkOn(w)
			t.Errorf("%s: resumed past a Ready that panicked", tc.name)
		})
		var got any
		func() {
			defer func() { got = recover() }()
			e.Run()
		}()
		err, ok := got.(error)
		if want := `sim: proc "k0/sys1" panicked: ` + tc.want; !ok || err.Error() != want {
			t.Fatalf("%s: Run panicked with %v, want %q", tc.name, got, want)
		}
		if e.LiveProcs() != 1 {
			t.Fatalf("%s: %d procs live after the fault, want 1 (it stays parked)", tc.name, e.LiveProcs())
		}
		e.Kill()
		if e.LiveProcs() != 0 {
			t.Fatalf("%s: %d procs live after Kill", tc.name, e.LiveProcs())
		}
	}
}
