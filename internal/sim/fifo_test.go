package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesReferenceSlice drives a FIFO and the idiom it replaces — a
// plain slice popped with q = q[1:] — with the same random interleaving of
// push and pop, in two regimes: one that drains the queue all the time, and
// one that never lets it fall below a standing backlog, where only sliding
// can reclaim the dead prefix.
func TestFIFOMatchesReferenceSlice(t *testing.T) {
	regimes := []struct {
		name  string
		floor int // pops stop here
	}{
		{name: "drained", floor: 0},
		{name: "never-drained", floor: 5},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var f FIFO[*int]
			var ref []*int
			next := 0
			push := func() {
				v := new(int)
				*v = next
				next++
				f.Push(v)
				ref = append(ref, v)
			}
			for len(ref) < rg.floor {
				push()
			}
			emptied, maxLen := 0, 0
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(3); {
				case r == 0 && len(ref) < rg.floor+40:
					// Bursts make the queue outgrow and re-fill its array.
					for n := rng.Intn(3) + 1; n > 0; n-- {
						push()
					}
				case r != 0 && len(ref) > rg.floor:
					if got, want := f.Pop(), ref[0]; got != want {
						t.Fatalf("step %d: popped %d, want %d", step, *got, *want)
					}
					ref = ref[1:]
				}
				if f.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, f.Len(), len(ref))
				}
				if len(ref) == 0 {
					emptied++
				}
				maxLen = max(maxLen, len(ref))
				// Everything outside the live window is zeroed: the queue
				// pins nothing it has handed out.
				for i, v := range f.items[:cap(f.items)] {
					if live := i >= f.head && i < len(f.items); !live && v != nil {
						t.Fatalf("step %d: dead slot %d still holds %d", step, i, *v)
					}
				}
				if f.head >= 0 && f.first != nil {
					t.Fatalf("step %d: the empty inline slot still holds %d", step, *f.first)
				}
			}
			if drained := emptied > 0; drained != (rg.floor == 0) {
				t.Fatalf("queue was empty after %d steps, floor is %d", emptied, rg.floor)
			}
			// Twenty thousand steps through a queue that never held more
			// than maxLen: the dead prefix must have been reclaimed, not
			// carried along by ever larger arrays.
			if cap(f.items) > 4*maxLen {
				t.Fatalf("queue of at most %d elements grew its array to %d slots", maxLen, cap(f.items))
			}
		})
	}
}

// TestFIFOKeepsCapacityAcrossDrains is the point of the type: a queue that
// hovers around empty reuses one backing array.
func TestFIFOKeepsCapacityAcrossDrains(t *testing.T) {
	var f FIFO[int]
	for i := 0; i < 8; i++ {
		f.Push(i)
	}
	for f.Len() > 0 {
		f.Pop()
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			f.Push(i)
		}
		for f.Len() > 0 {
			f.Pop()
		}
	}); allocs != 0 {
		t.Fatalf("fill-and-drain cycle allocates %v times, want 0", allocs)
	}
}

// TestQueueSteadyStateAllocs: a consumer parked on a Queue and a producer
// pushing into it — the kernel thread-pool pattern — allocate nothing per
// element once the arrays have grown: not for the item, not for the waiter
// registration, not for the proc switch.
func TestQueueSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	q := NewQueue[int]()
	sum := 0
	e.Spawn("consumer", func(p *Proc) {
		for {
			sum += q.Pop(p)
		}
	})
	e.Run() // consumer parks on the empty queue
	cycle := func() {
		q.Push(1) // wakes the consumer
		q.Push(2) // queued behind it
		e.Run()   // consumer drains both and parks again
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %v times per cycle, want 0", allocs)
	}
	if q.Len() != 0 || q.Waiters() != 1 || sum == 0 {
		t.Fatalf("queue not back at rest: len=%d waiters=%d sum=%d", q.Len(), q.Waiters(), sum)
	}
}

// TestSemaphoreContendedAllocs: procs queueing behind a one-unit semaphore
// — the kernel CPU — allocate nothing per acquire/release.
func TestSemaphoreContendedAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	sem := NewSemaphore(1)
	start := NewQueue[struct{}]()
	const contenders = 4
	held := 0
	for i := 0; i < contenders; i++ {
		e.Spawn("contender", func(p *Proc) {
			for {
				start.Pop(p)
				sem.Acquire(p)
				held++
				p.Sleep(1) // the others pile up behind the holder
				sem.Release()
			}
		})
	}
	e.Run()
	cycle := func() {
		for i := 0; i < contenders; i++ {
			start.Push(struct{}{})
		}
		e.Run()
	}
	cycle()
	held = 0
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("contended acquire/release allocates %v times per cycle, want 0", allocs)
	}
	if held != 201*contenders || sem.waiters.Len() != 0 || sem.Count() != 1 {
		t.Fatalf("semaphore not back at rest: held=%d waiting=%d count=%d", held, sem.waiters.Len(), sem.Count())
	}
}

// TestFutureWaitAllocs: one proc waiting on a future — every call/reply
// rendezvous — registers in the future's inline slot, so the wait itself
// allocates nothing (the Future object is the caller's).
func TestFutureWaitAllocs(t *testing.T) {
	e := NewEngine()
	defer e.Kill()
	var f Future[int]
	start := NewQueue[struct{}]()
	sum := 0
	e.Spawn("caller", func(p *Proc) {
		for {
			start.Pop(p)
			sum += f.Wait(p)
		}
	})
	e.Run()
	complete := func() { f.Complete(1) }
	cycle := func() {
		f = Future[int]{}
		start.Push(struct{}{})
		e.Schedule(1, complete)
		e.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("a single-waiter Future.Wait allocates %v times, want 0", allocs)
	}
	if sum != 202 {
		t.Fatalf("caller saw %d completions, want 202", sum)
	}
}

// TestSingleElementQueuesAllocateNothing: a FIFO, Queue or Semaphore that
// never holds more than one element keeps it in the record (FIFO.first), so
// not even the first push into a fresh one allocates. Every cycle below
// uses queues it has not touched before.
func TestSingleElementQueuesAllocateNothing(t *testing.T) {
	const runs = 100
	x := new(int)
	fifos := make([]FIFO[*int], runs+1)
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		f := &fifos[i]
		i++
		for n := 0; n < 2; n++ {
			f.Push(x)
			if f.Pop() != x || f.Len() != 0 {
				t.Fatal("a one-element FIFO lost its element")
			}
		}
	}); allocs != 0 {
		t.Fatalf("a fresh FIFO of one element allocates %v times, want 0", allocs)
	}

	e := NewEngine()
	defer e.Kill()
	queues := make([]Queue[int], runs+1)
	sems := make([]Semaphore, runs+1)
	taken := 0
	e.Spawn("consumer", func(p *Proc) {
		for i := range queues {
			taken += queues[i].Pop(p) // parks: its waiter is the queue's one element
			sems[i].Acquire(p)        // parks on a semaphore with no unit
		}
	})
	e.Run()
	j := 0
	cycle := func() {
		queues[j].Push(1) // the item joins the queue, the waiter leaves it
		e.Run()
		sems[j].Release()
		e.Run()
		j++
	}
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("a fresh Queue and Semaphore of one element allocate %v times per cycle, want 0", allocs)
	}
	if taken != runs+1 {
		t.Fatalf("consumer took %d items, want %d", taken, runs+1)
	}
}

// TestFIFOUseStaysInItsRun: two queues given adjacent runs of one block
// (Use) fill them without allocating, and one that outgrows its run copies
// out instead of writing into its neighbour's.
func TestFIFOUseStaysInItsRun(t *testing.T) {
	var block Blocks[int]
	var a, b FIFO[int]
	a.Use(block.Take(4, 8))
	b.Use(block.Take(4, 8))
	cycle := func() { // the first element lives in the record, 4 behind it
		for i := 0; i < 5; i++ {
			a.Push(i)
			b.Push(100 + i)
		}
		for i := 0; i < 5; i++ {
			a.Pop()
			b.Pop()
		}
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("filling the runs allocated %v times", allocs)
	}
	for i := 0; i < 5; i++ {
		b.Push(100 + i)
	}
	for i := 0; i < 20; i++ {
		a.Push(i)
	}
	for i := 0; i < 20; i++ {
		if got := a.Pop(); got != i {
			t.Fatalf("a popped %d, want %d", got, i)
		}
	}
	for i := 0; i < 5; i++ {
		if got := b.Pop(); got != 100+i {
			t.Fatalf("b popped %d, want %d", got, 100+i)
		}
	}
}
