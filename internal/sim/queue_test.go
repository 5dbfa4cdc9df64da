package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The event queue was rebuilt from a boxed container/heap into an inline
// 4-ary heap plus a same-instant FIFO lane, and the heap then into a heap of
// instants, each a FIFO of its events (the later lane's runs). These tests
// pin the contract every rebuild must preserve: the execution order is
// exactly the total order by (time, sequence number), bit-identical to the
// first implementation.

// refEvent is one event of the reference queue.
type refEvent struct {
	at  Time
	seq uint64
	ev  Event
}

// refEngine is a reference event queue with the pre-optimization layout:
// one boxed container/heap ordered by (at, seq), no lanes. It is the
// oracle the production engine is checked against.
type refEngine struct {
	now Time
	pq  refHeap
	seq uint64
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (r *refEngine) Schedule(d Duration, fn func()) { r.Post(d, Func(fn)) }

func (r *refEngine) Post(d Duration, ev Event) {
	r.seq++
	heap.Push(&r.pq, refEvent{at: r.now + d, seq: r.seq, ev: ev})
}

func (r *refEngine) Now() Time    { return r.now }
func (r *refEngine) Pending() int { return len(r.pq) }

func (r *refEngine) Run() {
	for len(r.pq) > 0 {
		ev := heap.Pop(&r.pq).(refEvent)
		r.now = ev.at
		ev.ev.Fire()
	}
}

// eventQueue is the surface the property test drives on both
// implementations.
type eventQueue interface {
	Schedule(d Duration, fn func())
	Post(d Duration, ev Event)
	Now() Time
	Pending() int
	Run()
}

// profile draws the delays of a driven schedule, none longer than max.
type profile struct {
	name  string
	max   Duration
	delay func(rng *rand.Rand) Duration
}

// last is the latest instant a schedule driven from instant 0 can hold an
// event at: a root and its generations of children, each max later.
func (prof profile) last() Time { return Time(driveLevels) * Time(prof.max) }

// profiles are the schedule shapes the property tests drive.
var profiles = []profile{
	// Small delays, 0 common: the same-instant lane and its interleaving
	// with later-lane events landing on the same timestamp.
	{"small", 5, func(rng *rand.Rand) Duration { return Duration(rng.Intn(6)) }},
	// Tie-heavy: a handful of delays, so most instants hold long runs, as
	// the lockstep clients of the scale sweep make them.
	{"ties", 16, func(rng *rand.Rand) Duration { return [...]Duration{0, 1, 4, 16}[rng.Intn(4)] }},
	// Collision-heavy: live instants 64 apart share one tail-cache entry,
	// which forces two (or more) runs of one instant.
	{"collide", 256, func(rng *rand.Rand) Duration {
		if rng.Intn(8) == 0 {
			return Duration(rng.Intn(2))
		}
		return 64 * Duration(1+rng.Intn(4))
	}},
	// Wide: nearly every event at an instant of its own.
	{"wide", 1 << 20, func(rng *rand.Rand) Duration { return 1 + Duration(rng.Intn(1<<20)) }},
}

// traceStep is one executed event of a driven schedule: its id, the time it
// ran at and the events pending while it ran.
type traceStep struct {
	id      uint64
	at      Time
	pending int
}

// recordEvent is a record that is its own event, as a proc, a message or a
// wire is: posting it stores a pointer, not a func. Records are recycled,
// released as they fire, so one record fires many times in a run.
type recordEvent struct {
	body func()
	free *[]*recordEvent
}

func (r *recordEvent) Fire() {
	body := r.body
	r.body = nil
	*r.free = append(*r.free, r)
	body()
}

// driveLevels is how many generations of events driveQueue schedules: the
// roots and three of children.
const driveLevels = 4

// driveQueue feeds a seeded schedule into q: a batch of root events whose
// handlers recursively schedule children with delays drawn from prof. A
// third of the events are posted as recycled records, the rest scheduled as
// funcs, so the two kinds share every lane and every instant. It returns
// the execution trace.
func driveQueue(q eventQueue, prof profile, seed int64) []traceStep {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceStep
	var free []*recordEvent
	nextID := uint64(0)
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		d := prof.delay(rng)
		body := func() {
			trace = append(trace, traceStep{id, q.Now(), q.Pending()})
			if depth < driveLevels-1 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(depth + 1)
				}
			}
		}
		if rng.Intn(3) > 0 {
			q.Schedule(d, body)
			return
		}
		r := &recordEvent{free: &free}
		if n := len(free); n > 0 {
			r, free = free[n-1], free[:n-1]
		}
		r.body = body
		q.Post(d, r)
	}
	for i := 0; i < 400; i++ {
		schedule(0)
	}
	q.Run()
	return trace
}

// sameTrace fails t unless got, the engine's trace, is want, the
// reference's.
func sameTrace(t *testing.T, what string, got, want []traceStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: traces diverge at %d: engine %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// TestQueueMatchesReferenceHeap: for many seeds and every profile, the
// production engine and the reference container/heap implementation execute
// identical (time, seq) streams in identical order, with identical Pending
// counts all the way through.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	for _, prof := range profiles {
		for seed := int64(1); seed <= 25; seed++ {
			e := NewEngine()
			got := driveQueue(e, prof, seed)
			want := driveQueue(&refEngine{}, prof, seed)
			sameTrace(t, prof.name, got, want)
			if n := e.Pending(); n != 0 {
				t.Fatalf("%s seed %d: %d events pending after Run", prof.name, seed, n)
			}
		}
	}
}

// slicedEngine drives the production engine through RunUntil in slices of
// width cycles instead of Run, so that later-lane events, lane events and
// the bound keep meeting on one instant. Events still pending once the
// bound has passed last, the profile's last instant, are ones the engine
// does not execute: the test fails there instead of slicing forever.
type slicedEngine struct {
	*Engine
	t           *testing.T
	width, last Time
}

func (e slicedEngine) Run() {
	for t := e.Now(); e.Pending() > 0; {
		if t > e.last {
			e.t.Fatalf("%d event(s) pending at bound %d, past the profile's last instant %d", e.Pending(), t, e.last)
		}
		t += e.width
		e.RunUntil(t)
	}
}

// TestRunDriversMatchReference: Run and RunUntil are loops around one pop
// path, so a run sliced by RunUntil executes the reference heap's (id, time)
// stream too, for every profile.
func TestRunDriversMatchReference(t *testing.T) {
	for _, prof := range profiles {
		width := Time(2)
		if prof.name == "wide" {
			width = 1 << 12
		}
		for seed := int64(1); seed <= 25; seed++ {
			got := driveQueue(slicedEngine{NewEngine(), t, width, prof.last()}, prof, seed)
			want := driveQueue(&refEngine{}, prof, seed)
			sameTrace(t, prof.name, got, want)
		}
	}
}

// cutEngine drives the production engine up to instant cut only, leaving
// the rest of the schedule pending.
type cutEngine struct {
	*Engine
	cut Time
}

func (e cutEngine) Run() { e.RunUntil(e.cut) }

// TestPooledEngineMatchesReference: one pooled engine runs every profile and
// seed in turn, each after a run cut off half-way — events still pending,
// the tail cache full of their instants — that Put has reset. Every full
// run must still execute the reference's stream: nothing of the cut run may
// leak into it.
func TestPooledEngineMatchesReference(t *testing.T) {
	pool := NewPool()
	e := pool.Get()
	for _, prof := range profiles {
		for seed := int64(1); seed <= 10; seed++ {
			cut := driveQueue(&refEngine{}, prof, seed+100)
			driveQueue(cutEngine{e, cut[len(cut)/2].at}, prof, seed+100)
			if e.Pending() == 0 {
				t.Fatalf("%s seed %d: nothing pending at the cut", prof.name, seed)
			}
			pool.Put(e)
			if e = pool.Get(); e.Pending() != 0 || e.Now() != 0 {
				t.Fatalf("reset engine: %d pending at %d", e.Pending(), e.Now())
			}
			got := driveQueue(e, prof, seed)
			want := driveQueue(&refEngine{}, prof, seed)
			sameTrace(t, prof.name, got, want)
		}
	}
}

// TestTwoRunsOfOneInstantRunInSeqOrder: instants 10 and 74 share a
// tail-cache entry, so scheduling 10, 74, 10 builds two runs of instant 10.
// The older run never receives another event, and its events run first.
func TestTwoRunsOfOneInstantRunInSeqOrder(t *testing.T) {
	e := NewEngine()
	var got []string
	add := func(d Duration, name string) {
		e.Schedule(d, func() { got = append(got, name) })
	}
	add(10, "a1")
	add(10, "a2") // appended to the first run of 10
	add(74, "b")  // evicts 10 from the cache
	add(10, "c1") // a second run of 10
	add(10, "c2") // appended to the second run
	if len(e.runs) != 3 {
		t.Fatalf("%d runs, want 3: two of instant 10 and one of 74", len(e.runs))
	}
	if n := e.Pending(); n != 5 {
		t.Fatalf("pending = %d, want 5", n)
	}
	e.Run()
	want := []string{"a1", "a2", "c1", "c2", "b"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestResetForgetsCachedTails: a run cut off with an event pending at 100
// leaves the tail cache naming its slot. After Reset that slot is free and
// is reused for the first event of the next run, at 50; an event scheduled
// for 100 must start a run of its own, not be appended to the 50 one through
// the old entry.
func TestResetForgetsCachedTails(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() { t.Error("an event of the reset run ran") })
	e.Reset()
	var at []Time
	e.Schedule(50, func() { at = append(at, e.Now()) })
	e.Schedule(100, func() { at = append(at, e.Now()) })
	if n := e.Pending(); n != 2 {
		t.Fatalf("pending = %d, want 2", n)
	}
	e.RunUntil(50)
	if n := e.Pending(); n != 1 {
		t.Fatalf("pending after 50 = %d, want 1", n)
	}
	e.Run()
	if len(at) != 2 || at[0] != 50 || at[1] != 100 {
		t.Fatalf("events ran at %v, want [50 100]", at)
	}
}

// TestQueueHeapBeatsLaneAtSameInstant: an event scheduled from an earlier
// instant for time T (living in the later lane) runs before any event
// scheduled at time T for time T (living in the same-instant lane), because its
// sequence number is lower — the exact (time, seq) order of the old queue.
func TestQueueHeapBeatsLaneAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(5, func() { got = append(got, 0) })
	e.Schedule(3, func() {
		// now = 3: schedule lane events for t = 5... after hopping through
		// t = 4, so they are lane entries when t = 5 arrives.
		e.Schedule(1, func() {
			e.Schedule(1, func() { got = append(got, 1) }) // later lane, seq later than 0's
		})
	})
	e.Schedule(5, func() {
		got = append(got, 2)
		e.Schedule(0, func() { got = append(got, 3) }) // lane at t=5
	})
	e.Run()
	want := []int{0, 2, 1, 3}
	// Ordering at t=5 by seq: event 0 (seq 1), event 2 (seq 3), event 1
	// (scheduled at t=4, seq 5), event 3 (lane, scheduled at t=5, seq 6).
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestWakeOrderFIFO: procs woken at one timestamp resume in exactly the
// order the Wake calls were made — the regression test for the same-instant
// lane.
func TestWakeOrderFIFO(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	const n = 6
	wakeOrder := []int{3, 1, 5, 0, 4, 2}
	var got []int
	procs := make([]*Proc, n)
	for i := 0; i < n; i++ {
		i := i
		procs[i] = e.Spawn("p", func(p *Proc) {
			p.Park()
			got = append(got, i)
		})
	}
	e.Run() // all procs are parked now
	e.Schedule(10, func() {
		for _, i := range wakeOrder {
			procs[i].Wake()
		}
	})
	e.Run()
	if len(got) != n {
		t.Fatalf("resumed %d procs, want %d", len(got), n)
	}
	for i := range wakeOrder {
		if got[i] != wakeOrder[i] {
			t.Fatalf("wake order not FIFO: got %v, want %v", got, wakeOrder)
		}
	}
}

// TestYieldInterleavesFIFO: procs that yield (Sleep(0)) in a loop
// round-robin in spawn order, every round, without time advancing.
func TestYieldInterleavesFIFO(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	var got []int
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn("y", func(p *Proc) {
			for r := 0; r < 3; r++ {
				got = append(got, i)
				p.Sleep(0)
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("yield interleaving = %v, want %v", got, want)
		}
	}
	if e.Now() != 0 {
		t.Fatalf("Sleep(0) advanced time to %d", e.Now())
	}
}
