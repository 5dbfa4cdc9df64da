package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestFutureWait(t *testing.T) {
	e := NewEngine()
	f := NewFuture[int](e)
	var got int
	e.Spawn("waiter", func(p *Proc) {
		got = f.Wait(p)
	})
	e.Schedule(42, func() { f.Complete(7) })
	e.Run()
	if got != 7 {
		t.Fatalf("got %d, want 7", got)
	}
	if e.Now() != 42 {
		t.Fatalf("time = %d, want 42", e.Now())
	}
}

func TestFutureAlreadyDone(t *testing.T) {
	e := NewEngine()
	f := NewFuture[string](e)
	f.Complete("x")
	var got string
	e.Spawn("waiter", func(p *Proc) { got = f.Wait(p) })
	e.Run()
	if got != "x" {
		t.Fatalf("got %q, want x", got)
	}
}

// TestFutureMultipleWaiters: every waiter gets the value, and they resume in
// the order they began to wait — the first from its inline slot, the rest
// from the spill slice.
func TestFutureMultipleWaiters(t *testing.T) {
	e := NewEngine()
	f := NewFuture[int](e)
	var woke []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Duration(5 - i)) // register in reverse spawn order
			if f.Wait(p) == 9 {
				woke = append(woke, i)
			}
		})
	}
	e.Schedule(10, func() { f.Complete(9) })
	e.Run()
	if want := []int{4, 3, 2, 1, 0}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("wake order = %v, want %v", woke, want)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	e := NewEngine()
	f := NewFuture[int](e)
	f.Complete(1)
	defer func() {
		if recover() == nil {
			t.Error("double Complete did not panic")
		}
	}()
	f.Complete(2)
}

func TestSemaphoreBoundsConcurrency(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(2)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("worker", func(p *Proc) {
			sem.Acquire(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(10)
			inside--
			sem.Release()
		})
	}
	e.Run()
	if maxInside != 2 {
		t.Fatalf("max concurrent = %d, want 2", maxInside)
	}
	if sem.Count() != 2 {
		t.Fatalf("final count = %d, want 2", sem.Count())
	}
}

func TestSemaphoreFIFO(t *testing.T) {
	e := NewEngine()
	sem := NewSemaphore(0)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("w", func(p *Proc) {
			p.Sleep(Duration(i)) // stagger arrival: 0,1,2,3
			sem.Acquire(p)
			order = append(order, i)
		})
	}
	e.Schedule(100, func() {
		for i := 0; i < 4; i++ {
			sem.Release()
		}
	})
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("wakeup order %v, want FIFO", order)
		}
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	sem := NewSemaphore(1)
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire failed with count 1")
	}
	if sem.TryAcquire() {
		t.Fatal("TryAcquire succeeded with count 0")
	}
}

func TestQueueBlocksUntilPush(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int]()
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	e.Schedule(10, func() { q.Push(1) })
	e.Schedule(20, func() { q.Push(2); q.Push(3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	q := NewQueue[string]()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
	q.Push("a")
	v, ok := q.TryPop()
	if !ok || v != "a" {
		t.Fatalf("TryPop = %q, %v", v, ok)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	wg.Add(3)
	var done Time
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		done = p.Now()
	})
	e.Schedule(10, func() { wg.Done() })
	e.Schedule(20, func() { wg.Done() })
	e.Schedule(30, func() { wg.Done() })
	e.Run()
	if done != 30 {
		t.Fatalf("done at %d, want 30", done)
	}
}

func TestWaitGroupZeroImmediate(t *testing.T) {
	e := NewEngine()
	var wg WaitGroup
	ran := false
	e.Spawn("w", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	e.Run()
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

// Property: a queue delivers elements in push order regardless of the
// interleaving of pushes and pops.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(vals []int, popDelays []uint8) bool {
		e := NewEngine()
		q := NewQueue[int]()
		var got []int
		e.Spawn("consumer", func(p *Proc) {
			for i := range vals {
				if i < len(popDelays) {
					p.Sleep(Duration(popDelays[i]))
				}
				got = append(got, q.Pop(p))
			}
		})
		for i, v := range vals {
			v := v
			e.Schedule(Duration(i*3), func() { q.Push(v) })
		}
		e.Run()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
