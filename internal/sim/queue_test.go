package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The event queue was rebuilt from a boxed container/heap into an inline
// 4-ary heap plus a same-instant FIFO lane. These tests pin the contract
// that rebuild must preserve: the execution order is exactly the total
// order by (time, sequence number), bit-identical to the old
// implementation.

// refEngine is a reference event queue with the pre-optimization layout:
// one boxed container/heap ordered by (at, seq), no lanes. It is the
// oracle the production engine is checked against.
type refEngine struct {
	now Time
	pq  refHeap
	seq uint64
}

type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (r *refEngine) Schedule(d Duration, fn func()) {
	r.seq++
	heap.Push(&r.pq, event{at: r.now + d, seq: r.seq, fn: fn})
}

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) Run() {
	for len(r.pq) > 0 {
		ev := heap.Pop(&r.pq).(event)
		r.now = ev.at
		ev.fn()
	}
}

// eventQueue is the surface the property test drives on both
// implementations.
type eventQueue interface {
	Schedule(d Duration, fn func())
	Now() Time
	Run()
}

// driveQueue feeds a seeded schedule into q: a batch of root events whose
// handlers recursively schedule children with random small delays. Delay 0
// is common, so the same-instant lane (and its interleaving with heap
// events landing on the same timestamp) is exercised heavily. It returns
// the execution trace as (event id, execution time) pairs.
func driveQueue(q eventQueue, seed int64) [][2]uint64 {
	rng := rand.New(rand.NewSource(seed))
	var trace [][2]uint64
	nextID := uint64(0)
	var schedule func(depth int)
	schedule = func(depth int) {
		id := nextID
		nextID++
		d := Duration(rng.Intn(6)) // 0..5; 0 lands in the same-instant lane
		q.Schedule(d, func() {
			trace = append(trace, [2]uint64{id, uint64(q.Now())})
			if depth < 3 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(depth + 1)
				}
			}
		})
	}
	for i := 0; i < 400; i++ {
		schedule(0)
	}
	q.Run()
	return trace
}

// TestQueueMatchesReferenceHeap: for many seeds, the production engine and
// the reference container/heap implementation execute identical (time, seq)
// streams in identical order.
func TestQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got := driveQueue(NewEngine(), seed)
		want := driveQueue(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at %d: engine %v, reference %v",
					seed, i, got[i], want[i])
			}
		}
	}
}

// slicedEngine drives the production engine through RunUntil in slices of a
// few cycles instead of Run, so that heap events, lane events and the bound
// keep meeting on one instant.
type slicedEngine struct{ *Engine }

func (e slicedEngine) Run() {
	for e.Pending() > 0 {
		e.RunUntil(e.Now() + 2)
	}
}

// TestRunDriversMatchReference: Run and RunUntil are loops around one pop
// path, so a run sliced by RunUntil executes the reference heap's (id, time)
// stream too.
func TestRunDriversMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got := driveQueue(slicedEngine{NewEngine()}, seed)
		want := driveQueue(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: %d vs %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces diverge at %d: engine %v, reference %v",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestQueueHeapBeatsLaneAtSameInstant: an event scheduled from an earlier
// instant for time T (living in the heap) runs before any event scheduled
// at time T for time T (living in the same-instant lane), because its
// sequence number is lower — the exact (time, seq) order of the old queue.
func TestQueueHeapBeatsLaneAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(5, func() { got = append(got, 0) })
	e.Schedule(3, func() {
		// now = 3: schedule lane events for t = 5... after hopping through
		// t = 4, so they are lane entries when t = 5 arrives.
		e.Schedule(1, func() {
			e.Schedule(1, func() { got = append(got, 1) }) // heap, seq later than 0's
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
