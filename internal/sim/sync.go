package sim

// Future is a single-assignment cell that procs can wait on. It is the
// building block for call/reply protocols: the caller parks on Wait and the
// reply handler fulfills the future via Complete, waking the caller.
type Future[T any] struct {
	done bool
	val  T
	// first is the earliest parked waiter, held inline: a call/reply future
	// has exactly one, so the common Wait allocates nothing. Later waiters
	// spill to more; Complete wakes first, then more in order, so wake order
	// is registration order.
	first *Proc
	more  []*Proc
}

// NewFuture returns an unfulfilled future, as the zero Future is. No
// primitive of this file keeps its engine: the engine argument is unused.
func NewFuture[T any](*Engine) *Future[T] {
	return &Future[T]{}
}

// Complete fulfills the future with val and wakes all waiters. Completing a
// future twice panics: replies must be unique.
func (f *Future[T]) Complete(val T) {
	if f.done {
		panic("sim: future completed twice")
	}
	f.done = true
	f.val = val
	if w := f.first; w != nil {
		f.first = nil
		w.Wake()
	}
	for _, w := range f.more {
		w.Wake()
	}
	f.more = nil
}

// Done reports whether the future has been fulfilled.
func (f *Future[T]) Done() bool { return f.done }

// Wait parks the proc until the future is fulfilled and returns the value.
// If the future is already fulfilled it returns immediately — in either case
// after settling what the proc owes (Proc.Charge), like everything in this
// file that can block: whether there is something to wait for is only known
// at the instant the proc has really reached.
func (f *Future[T]) Wait(p *Proc) T {
	if p == nil {
		// Wait(nil) is the post-run accessor for a future known complete.
		if !f.done {
			panic("sim: Wait(nil) on unfulfilled future")
		}
		return f.val
	}
	p.ParkOn(f)
	return f.val
}

// Ready is Wait's condition as a Waiter: fulfilled, or p joins the waiters
// Complete wakes — a proc registers once per park, so one woken early
// registers again.
func (f *Future[T]) Ready(p *Proc) bool {
	if f.done {
		return true
	}
	if f.first == nil {
		f.first = p
	} else {
		f.more = append(f.more, p)
	}
	return false
}

// Semaphore is a counting semaphore, used to model bounded resources such as
// in-flight message slots, DTU credits or a kernel PE's single core. Waiters
// are woken in FIFO order, one per released unit — but a wake-up is an event,
// and whoever runs before it fires may take the unit first (a proc that
// releases and acquires again in one go always does). The woken waiter then
// finds nothing and queues up again, at the tail: wake order is FIFO,
// acquisition order is not. That is the simulated behaviour — a SemperOS
// kernel thread that finishes a job and finds the next one queued keeps the
// CPU — and every baseline depends on it.
type Semaphore struct {
	count   int
	waiters FIFO[*Proc]
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(count int) *Semaphore {
	return &Semaphore{count: count}
}

// Count returns the currently available units.
func (s *Semaphore) Count() int { return s.count }

// TryAcquire takes one unit if available and reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// Use gives the waiter queue its storage (FIFO.Use).
func (s *Semaphore) Use(waiters []*Proc) { s.waiters.Use(waiters) }

// Acquire takes one unit, parking the proc until it gets one, after settling
// what the proc owes.
func (s *Semaphore) Acquire(p *Proc) { p.ParkOn(s) }

// Ready is Acquire as a Waiter: it takes a unit if there is one, and queues p
// behind the other waiters if not.
func (s *Semaphore) Ready(p *Proc) bool {
	if s.count == 0 {
		s.waiters.Push(p)
		return false
	}
	s.count--
	return true
}

// Release returns one unit and wakes the longest-waiting proc, if any.
func (s *Semaphore) Release() {
	s.count++
	if s.waiters.Len() > 0 {
		s.waiters.Pop().Wake()
	}
}

// Queue is an unbounded FIFO that procs can block on. It is the simulation
// analogue of a Go channel: Push never blocks, Pop parks until an element is
// available. The zero Queue is empty and ready to use.
type Queue[T any] struct {
	items   FIFO[T]
	waiters FIFO[*Proc]
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Use gives the item and waiter queues their storage (FIFO.Use).
func (q *Queue[T]) Use(items []T, waiters []*Proc) {
	q.items.Use(items)
	q.waiters.Use(waiters)
}

// Waiters returns the number of procs parked in Pop (idle consumers).
func (q *Queue[T]) Waiters() int { return q.waiters.Len() }

// Push appends an element and wakes the longest-waiting consumer, if any.
// It may be called from event handlers or procs.
func (q *Queue[T]) Push(v T) {
	q.items.Push(v)
	if q.waiters.Len() > 0 {
		q.waiters.Pop().Wake()
	}
}

// TryPop removes and returns the head element if present.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}

// Pop removes and returns the head element, parking the proc until one is
// available, after settling what the proc owes.
func (q *Queue[T]) Pop(p *Proc) T {
	p.ParkOn(q)
	return q.items.Pop()
}

// Ready is Pop's condition as a Waiter: an element is queued — the caller
// takes it with TryPop before anything else runs — or p joins the idle
// consumers.
func (q *Queue[T]) Ready(p *Proc) bool {
	if q.items.Len() == 0 {
		q.waiters.Push(p)
		return false
	}
	return true
}

// WaitGroup tracks a set of outstanding operations; procs can park until the
// count drops to zero. It mirrors sync.WaitGroup for simulated time.
type WaitGroup struct {
	count   int
	waiters []*Proc
}

// Add increments the outstanding count by n (n may be negative; Done is
// Add(-1)). When the count reaches zero all waiters are woken.
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			w.Wake()
		}
		wg.waiters = nil
	}
}

// Done decrements the outstanding count.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the current outstanding count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait parks the proc until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) { p.ParkOn(wg) }

// Ready is Wait's condition as a Waiter: nothing outstanding, or p joins the
// waiters the last Done wakes.
func (wg *WaitGroup) Ready(p *Proc) bool {
	if wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		return false
	}
	return true
}
