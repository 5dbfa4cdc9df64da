package sim

import (
	"fmt"
	"strings"
	"testing"
)

// traceRec is one externally visible happening of a differential scenario.
type traceRec struct {
	at    Time
	label string
}

// owedScenario sets up groups independent copies of one randomized scenario
// on e and returns each group's trace of visible happenings plus, per stretch
// proc, the clock readings it took privately inside its stretches. The groups
// share nothing but the engine: its clock, its sequence counter, its instants.
//
// Each group gets: stretch procs, which repeat { spend k cost terms; do
// something visible }, bystander procs sleeping and logging, a consumer
// parked on a queue the stretch procs feed, and self-rearming timers. The
// delays are drawn from a few small values so that stretch steps, bystander
// wake-ups, timers and queue wakes keep landing on the same instants — the
// ties whose order the (time, sequence) discipline decides. With owed set,
// the stretch procs spend their terms with Charge and settle before the
// visible part; without, with one sleep per term. Every sleep of the
// scenario is sleep(p, d). Everything else is the same code fed by the same
// generator.
func owedScenario(seed uint64, owed bool, sleep func(*Proc, Duration), e *Engine, groups int) (traces [][]traceRec, private [][]Time) {
	const (
		stretchProcs = 3
		bystanders   = 3
		rounds       = 40
	)
	rng := seed*0x9E3779B97F4A7C15 + 1
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	delays := []Duration{0, 0, 1, 1, 2, 3, 3, 5, 8}
	delay := func() Duration { return delays[next(uint64(len(delays)))] }

	traces = make([][]traceRec, groups)
	for di := 0; di < groups; di++ {
		di := di
		log := func(at Time, format string, args ...any) {
			traces[di] = append(traces[di], traceRec{at, fmt.Sprintf(format, args...)})
		}
		q := NewQueue[int]()
		e.Spawn("consumer", func(p *Proc) {
			for {
				v := q.Pop(p)
				log(p.Now(), "consumer got %d", v)
			}
		})
		var parked *Proc
		waiting := false
		parked = e.Spawn("parked", func(p *Proc) {
			for {
				waiting = true
				p.Park()
				log(p.Now(), "parked woke")
			}
		})
		for i := 0; i < bystanders; i++ {
			i := i
			plan := make([]Duration, 3*rounds)
			for j := range plan {
				plan[j] = delay()
			}
			e.Spawn("bystander", func(p *Proc) {
				for j, d := range plan {
					sleep(p, d)
					log(p.Now(), "bystander %d step %d", i, j)
				}
			})
		}
		for i := 0; i < 2; i++ {
			i := i
			plan := make([]Duration, 2*rounds)
			for j := range plan {
				plan[j] = 1 + delay()
			}
			j := 0
			var tick func()
			tick = func() {
				log(e.Now(), "timer %d tick %d", i, j)
				if j++; j < len(plan) {
					e.Schedule(plan[j], tick)
				}
			}
			e.Schedule(plan[0], tick)
		}
		for i := 0; i < stretchProcs; i++ {
			i := i
			// A stretch is up to 12 terms — more than a proc can owe, so some
			// settle early — and every fourth term or so is a plain Sleep in
			// both variants: Sleep with charges pending.
			type term struct {
				d     Duration
				sleep bool
			}
			plan := make([][]term, rounds)
			for r := range plan {
				plan[r] = make([]term, 1+next(12))
				for j := range plan[r] {
					plan[r][j] = term{delay(), next(4) == 0}
				}
			}
			private = append(private, nil)
			mine := &private[len(private)-1]
			e.Spawn("stretch", func(p *Proc) {
				for r, terms := range plan {
					for _, tm := range terms {
						if owed && !tm.sleep {
							p.Charge(tm.d)
						} else {
							sleep(p, tm.d)
						}
						*mine = append(*mine, p.Now())
					}
					p.Settle()
					log(p.Now(), "stretch %d round %d", i, r)
					switch r % 3 {
					case 0:
						q.Push(100*i + r)
					case 1:
						if waiting {
							waiting = false
							parked.Wake()
						}
					case 2:
						e.Schedule(delay(), func() { log(e.Now(), "stretch %d event %d", i, r) })
					}
				}
			})
		}
	}
	return traces, private
}

// refSleep is Sleep as it was before it became Charge(d) + Settle(): with
// nothing owed, one event d ahead, scheduled from the body, and one park.
// The owed-time tests compare with it, so that they do not compare
// Charge/Settle with itself.
func refSleep(p *Proc, d Duration) {
	if p.nOwed != 0 {
		p.Charge(d)
		p.Settle()
		return
	}
	p.after(d)
	p.suspend()
}

// TestSleepIsASettledCharge: Sleep, which is Charge(d) + Settle(), runs the
// owed-time scenario exactly as refSleep does, with and without owed
// stretches — the same (time, label) trace, the same private clock
// readings, the same number of events and the same number of resumes.
func TestSleepIsASettledCharge(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		for _, owed := range []bool{false, true} {
			run := func(sleep func(*Proc, Duration)) ([]traceRec, [][]Time, uint64, uint64) {
				e := NewEngine()
				defer e.Kill()
				tr, priv := owedScenario(seed, owed, sleep, e, 1)
				e.Run()
				return tr[0], priv, e.Executed(), e.Resumes()
			}
			ref, rPriv, rExec, rRes := run(refSleep)
			got, gPriv, gExec, gRes := run((*Proc).Sleep)
			what := fmt.Sprintf("seed %d, owed %v", seed, owed)
			diffTraces(t, what, ref, got)
			if fmt.Sprint(rPriv) != fmt.Sprint(gPriv) {
				t.Fatalf("%s: Now() inside a stretch read differently", what)
			}
			if rExec != gExec || rRes != gRes {
				t.Fatalf("%s: %d events and %d resumes with the old Sleep, %d and %d now", what, rExec, rRes, gExec, gRes)
			}
		}
	}
}

func diffTraces(t *testing.T, what string, a, b []traceRec) {
	t.Helper()
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			t.Fatalf("%s: traces diverge at entry %d: slept %v, owed %v", what, i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		t.Fatalf("%s: %d entries slept, %d owed", what, len(a), len(b))
	}
}

// TestChargeSettleMatchesSleeps is the order-preservation claim of owed time
// as a differential test: the same scenario with a Sleep per cost term and
// with Charge/Settle produces the identical (time, label) trace of everything
// any party can see, the identical private clock readings, and executes the
// identical number of events — and resumes procs fewer times.
func TestChargeSettleMatchesSleeps(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		run := func(owed bool) ([]traceRec, [][]Time, uint64, uint64) {
			e := NewEngine()
			defer e.Kill()
			tr, priv := owedScenario(seed, owed, refSleep, e, 1)
			e.Run()
			return tr[0], priv, e.Executed(), e.Resumes()
		}
		slept, sPriv, sExec, sRes := run(false)
		owed, oPriv, oExec, oRes := run(true)
		what := fmt.Sprintf("seed %d", seed)
		diffTraces(t, what, slept, owed)
		if fmt.Sprint(sPriv) != fmt.Sprint(oPriv) {
			t.Fatalf("%s: Now() inside a stretch read differently while owing", what)
		}
		if sExec != oExec {
			t.Fatalf("%s: %d events slept, %d owed", what, sExec, oExec)
		}
		if oRes >= sRes {
			t.Fatalf("%s: %d resumes slept, %d owed: nothing saved", what, sRes, oRes)
		}
		if len(slept) < 500 {
			t.Fatalf("%s: only %d trace entries, the scenario did not run", what, len(slept))
		}
	}
}

// TestChargeSettleMatchesSleepsInterleaved is the same claim with three groups
// on the engine: each group's trace must hold while the other two keep
// scheduling onto the same instants, between its replayed charges.
func TestChargeSettleMatchesSleepsInterleaved(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		run := func(owed bool) ([][]traceRec, uint64) {
			e := NewEngine()
			defer e.Kill()
			tr, _ := owedScenario(seed, owed, refSleep, e, 3)
			e.Run()
			return tr, e.Executed()
		}
		slept, sExec := run(false)
		owed, oExec := run(true)
		for d := range slept {
			diffTraces(t, fmt.Sprintf("seed %d group %d", seed, d), slept[d], owed[d])
		}
		if sExec != oExec {
			t.Fatalf("seed %d: %d events slept, %d owed", seed, sExec, oExec)
		}
	}
}

// TestSummedSleepWouldReorder shows why Settle replays one event per charge
// instead of sleeping the sum: at the instant both finish, a proc that slept
// 2 then 3 resumes after a timer armed at time 1 for time 5, and a proc that
// slept 5 in one go resumes before it.
func TestSummedSleepWouldReorder(t *testing.T) {
	order := func(body func(p *Proc)) string {
		e := NewEngine()
		var got []string
		e.Spawn("p", func(p *Proc) {
			body(p)
			got = append(got, "proc")
		})
		e.Schedule(1, func() { e.Schedule(4, func() { got = append(got, "timer") }) })
		e.Run()
		return strings.Join(got, ",")
	}
	two := order(func(p *Proc) { p.Sleep(2); p.Sleep(3) })
	owed := order(func(p *Proc) { p.Charge(2); p.Charge(3); p.Settle() })
	sum := order(func(p *Proc) { p.Sleep(5) })
	if two != "timer,proc" || owed != two {
		t.Fatalf("two sleeps: %s, two charges: %s; want timer,proc for both", two, owed)
	}
	if sum != "proc,timer" {
		t.Fatalf("one summed sleep: %s; want proc,timer (the case that forbids summing)", sum)
	}
}

func TestChargeZeroCyclesIsAnEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Spawn("p", func(p *Proc) {
		e.Schedule(0, func() { got = append(got, "event") })
		p.Charge(0)
		p.Charge(0)
		p.Settle()
		got = append(got, "proc")
		if p.Now() != 0 {
			t.Errorf("now = %d after zero-cycle charges", p.Now())
		}
	})
	e.Run()
	if strings.Join(got, ",") != "event,proc" {
		t.Fatalf("order = %v: a zero-cycle charge must yield like Sleep(0)", got)
	}
	// Spawn's start + two replayed charges + the event.
	if e.Executed() != 4 || e.Resumes() != 2 {
		t.Fatalf("%d events, %d resumes; want 4, 2", e.Executed(), e.Resumes())
	}
}

func TestChargeBeyondCapacitySettlesEarly(t *testing.T) {
	e := NewEngine()
	const n = 3*maxOwed + 1
	var done Time
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Charge(2)
		}
		if p.Now() != 2*n {
			t.Errorf("now = %d while owing, want %d", p.Now(), 2*n)
		}
		p.Settle()
		done = p.Now()
	})
	e.Run()
	if done != 2*n || e.Now() != 2*n {
		t.Fatalf("settled at %d (engine %d), want %d", done, e.Now(), 2*n)
	}
	// One event per charge plus the start; one resume per full array, one
	// for the rest, one for the start.
	if e.Executed() != n+1 || e.Resumes() != 5 {
		t.Fatalf("%d events, %d resumes; want %d, 5", e.Executed(), e.Resumes(), n+1)
	}
}

func TestNowWhileOwing(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(10)
		p.Charge(3)
		p.Charge(4)
		if p.Now() != 17 || e.Now() != 10 {
			t.Errorf("owing 7 at 10: proc reads %d, engine %d; want 17, 10", p.Now(), e.Now())
		}
		p.Settle()
		if p.Now() != 17 || e.Now() != 17 {
			t.Errorf("settled: proc reads %d, engine %d; want 17, 17", p.Now(), e.Now())
		}
		p.Settle() // nothing owed: returns at once
		if e.Now() != 17 {
			t.Errorf("empty Settle moved the clock to %d", e.Now())
		}
	})
	e.Run()
	if e.Executed() != 4 {
		t.Fatalf("%d events, want 4 (start, sleep, two charges)", e.Executed())
	}
}

// TestBlockingSettlesFirst: every primitive that can block lets the owed time
// pass before it looks at the state it blocks on, so a wake-up that lands
// inside the owed interval is seen, exactly as it is after a Sleep.
func TestBlockingSettlesFirst(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func(e *Engine) (arm func(), wait func(p *Proc))
	}{
		{"Future.Wait", func(e *Engine) (func(), func(*Proc)) {
			f := NewFuture[int](e)
			return func() { f.Complete(1) }, func(p *Proc) { f.Wait(p) }
		}},
		{"Queue.Pop", func(e *Engine) (func(), func(*Proc)) {
			q := NewQueue[int]()
			return func() { q.Push(1) }, func(p *Proc) { q.Pop(p) }
		}},
		{"Semaphore.Acquire", func(e *Engine) (func(), func(*Proc)) {
			s := NewSemaphore(0)
			return s.Release, func(p *Proc) { s.Acquire(p) }
		}},
		{"WaitGroup.Wait", func(e *Engine) (func(), func(*Proc)) {
			var wg WaitGroup
			wg.Add(1)
			return wg.Done, func(p *Proc) { wg.Wait(p) }
		}},
		{"Sleep", func(e *Engine) (func(), func(*Proc)) {
			return func() {}, func(p *Proc) { p.Sleep(0) }
		}},
	} {
		e := NewEngine()
		arm, wait := tc.block(e)
		e.Schedule(5, arm) // inside the owed interval
		var after Time
		e.Spawn("p", func(p *Proc) {
			p.Charge(4)
			p.Charge(6)
			wait(p)
			after = p.Now()
		})
		e.Run()
		if after != 10 || e.LiveProcs() != 0 {
			t.Errorf("%s: returned at %d with %d procs live; want 10, 0", tc.name, after, e.LiveProcs())
		}
		e.Kill()
	}
}

func TestParkSettlesFirst(t *testing.T) {
	e := NewEngine()
	var after Time
	p := e.Spawn("p", func(p *Proc) {
		p.Charge(4)
		p.Park()
		after = p.Now()
	})
	e.Schedule(9, p.Wake)
	e.Run()
	if after != 9 {
		t.Fatalf("resumed at %d, want 9", after)
	}
}

func TestParkWithUnsettledChargesPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("debtor", func(p *Proc) {
		p.Charge(1)
		p.park() // what a blocking primitive that forgot to settle would do
	})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "unsettled charges") || !strings.Contains(fmt.Sprint(r), "debtor") {
			t.Fatalf("recovered %v, want the unsettled-charges panic naming the proc", r)
		}
		e.Kill()
	}()
	e.Run()
}

// TestScheduleWithUnsettledChargesPanics: whatever a proc schedules while it
// owes time — a timer, a wake-up, a push that wakes a consumer — would jump
// the queue ahead of the time the proc has not spent yet, so each panics
// instead; after Settle the same calls are fine.
func TestScheduleWithUnsettledChargesPanics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		publish func(e *Engine, other *Proc, q *Queue[int])
	}{
		{"Engine.Schedule", func(e *Engine, _ *Proc, _ *Queue[int]) { e.Schedule(1, func() {}) }},
		{"Engine.Schedule(0)", func(e *Engine, _ *Proc, _ *Queue[int]) { e.Schedule(0, func() {}) }},
		{"Wake", func(_ *Engine, other *Proc, _ *Queue[int]) { other.Wake() }},
		{"Queue.Push", func(_ *Engine, _ *Proc, q *Queue[int]) { q.Push(1) }},
	} {
		for _, settle := range []bool{false, true} {
			e := NewEngine()
			q := NewQueue[int]()
			other := e.Spawn("consumer", func(p *Proc) { q.Pop(p) })
			if tc.name == "Wake" {
				other = e.Spawn("parked", func(p *Proc) { p.Park() })
			}
			e.Spawn("debtor", func(p *Proc) {
				p.Sleep(1) // let the other proc park first
				p.Charge(3)
				if settle {
					p.Settle()
				}
				tc.publish(e, other, q)
			})
			var got any
			func() {
				defer func() { got = recover() }()
				e.Run()
			}()
			e.Kill()
			if settle && got != nil {
				t.Errorf("%s after Settle panicked: %v", tc.name, got)
			}
			if !settle && (got == nil || !strings.Contains(fmt.Sprint(got), "unsettled charges")) {
				t.Errorf("%s while owing: recovered %v, want the unsettled-charges panic", tc.name, got)
			}
		}
	}
}

func TestKillWhileSettling(t *testing.T) {
	e := NewEngine()
	cleaned := false
	e.Spawn("p", func(p *Proc) {
		defer func() {
			// A cleanup that blocks again while the proc unwinds.
			p.Sleep(1)
			cleaned = true
		}()
		p.Charge(10)
		p.Charge(10)
		p.Charge(10)
		p.Settle()
		t.Error("settled past the kill")
	})
	e.RunUntil(15) // the first charge has elapsed, the second is in flight
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d before Kill, want 1", e.LiveProcs())
	}
	e.Kill()
	if e.LiveProcs() != 0 || cleaned {
		t.Fatalf("after Kill: %d procs live, cleanup ran to the end: %v", e.LiveProcs(), cleaned)
	}
}

// TestChargeSettleAllocatesNothing: owed time lives in the Proc — no closure,
// no slice — so charging and settling is as allocation-free as Sleep.
func TestChargeSettleAllocatesNothing(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	start := NewQueue[struct{}]()
	e.Spawn("p", func(p *Proc) {
		for {
			start.Pop(p)
			p.Charge(1)
			p.Charge(0)
			p.Charge(2)
			p.Settle()
		}
	})
	step := func() {
		start.Push(struct{}{})
		e.Run()
	}
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("Charge x3 + Settle allocates %v times, want 0", allocs)
	}
}
