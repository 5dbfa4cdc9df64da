package sim

// Future is a single-assignment cell that procs can wait on. It is the
// building block for call/reply protocols: the caller parks on Wait and the
// reply handler fulfills the future via Complete, waking the caller.
//
// A future has a home domain, captured from the engine's executing domain at
// creation (nil while isolated rounds are in flight, which leaves the future
// domain-local). All of its state lives on the home domain: during isolated
// rounds, procs on other domains must use CompleteFrom, and Wait transparently
// relays both its registration and the delivered value through cross-domain
// posts. Each relayed leg costs at least the engine lookahead — one NoC
// latency under the kernel model — which is exactly the cost a cross-kernel
// rendezvous has on real hardware. Outside isolated rounds every operation
// short-circuits to the direct path, so merged-mode execution is unchanged.
type Future[T any] struct {
	eng  *Engine
	dom  *Domain
	done bool
	val  T
	// first is the earliest parked waiter, held inline: a call/reply future
	// has exactly one, so the common Wait allocates nothing. Later waiters
	// spill to more; Complete wakes first, then more in order, so wake order
	// is registration order.
	first     *Proc
	more      []*Proc
	callbacks []func(T)
}

// NewFuture returns an unfulfilled future bound to the engine. Its home
// domain is the engine's currently executing domain (the root between runs).
func NewFuture[T any](e *Engine) *Future[T] {
	return &Future[T]{eng: e, dom: e.cur}
}

// Complete fulfills the future with val and wakes all waiters. Completing a
// future twice panics: replies must be unique. During isolated rounds it must
// run on the future's home domain; procs elsewhere use CompleteFrom.
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
	for _, cb := range f.callbacks {
		cb(val)
	}
	f.callbacks = nil
}

// CompleteFrom fulfills the future from proc p's domain. On the home domain
// (or outside isolated rounds) it is Complete; from another domain during a
// round it relays the completion to the home domain as a cross-domain post,
// one lookahead later.
func (f *Future[T]) CompleteFrom(p *Proc, val T) {
	if f.dom == nil || p.dom == f.dom || !p.dom.inRound {
		f.Complete(val)
		return
	}
	p.dom.Post(f.dom, f.eng.lookahead, func() { f.Complete(val) })
}

// OnComplete registers fn to run when the future is fulfilled (immediately
// if it already is). Callbacks run in the completer's context, so they must
// not block; use Wait from procs instead.
func (f *Future[T]) OnComplete(fn func(T)) {
	if f.done {
		fn(f.val)
		return
	}
	f.callbacks = append(f.callbacks, fn)
}

// Done reports whether the future has been fulfilled.
func (f *Future[T]) Done() bool { return f.done }

// Wait parks the proc until the future is fulfilled and returns the value.
// If the future is already fulfilled it returns immediately — in either case
// after settling what the proc owes (Proc.Charge), like everything in this
// file that can block: whether there is something to wait for is only known
// at the instant the proc has really reached. During isolated
// rounds a waiter on a foreign domain registers with the home domain through
// a cross-domain post and receives the value the same way, so each leg of the
// rendezvous costs at least the engine lookahead.
func (f *Future[T]) Wait(p *Proc) T {
	if p == nil {
		// Wait(nil) is the post-run accessor for a future known complete.
		if !f.done {
			panic("sim: Wait(nil) on unfulfilled future")
		}
		return f.val
	}
	if f.local(p) {
		p.ParkOn(f)
		return f.val
	}
	p.Settle()
	la := f.eng.lookahead
	home, self := f.dom, p.dom
	var got T
	var have flag
	self.Post(home, la, func() {
		f.OnComplete(func(v T) {
			home.Post(self, la, func() {
				got, have = v, true
				p.Wake()
			})
		})
	})
	p.ParkOn(&have)
	return got
}

// local reports whether p can touch the future's state directly: always,
// except from a foreign domain while isolated rounds are in flight.
func (f *Future[T]) local(p *Proc) bool {
	return f.dom == nil || p.dom == f.dom || !p.dom.inRound
}

// Ready is Wait's condition as a Waiter, for procs on the future's home
// domain: fulfilled, or p joins the waiters Complete wakes — a proc registers
// once per park, so one woken early registers again.
func (f *Future[T]) Ready(p *Proc) bool {
	if f.done {
		return true
	}
	if !f.local(p) {
		panic("sim: Future.Ready from a foreign domain during isolated rounds (use Wait)")
	}
	if f.first == nil {
		f.first = p
	} else {
		f.more = append(f.more, p)
	}
	return false
}

// flag is the Waiter of a relayed rendezvous: ready once the post that
// carries the answer back to the waiter's domain has set it.
type flag bool

func (f *flag) Ready(*Proc) bool { return bool(*f) }

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
	eng     *Engine
	count   int
	waiters FIFO[*Proc]
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(e *Engine, count int) *Semaphore {
	return &Semaphore{eng: e, count: count}
}

// Count returns the currently available units.
func (s *Semaphore) Count() int { return s.count }

// Waiting returns the number of procs parked in Acquire.
func (s *Semaphore) Waiting() int { return s.waiters.Len() }

// TryAcquire takes one unit if available and reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

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
// available.
type Queue[T any] struct {
	eng     *Engine
	items   FIFO[T]
	waiters FIFO[*Proc]
}

// NewQueue returns an empty queue bound to the engine.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.items.Len() }

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
//
// The zero value is domain-local: all procs touching it must share a domain.
// A WaitGroup shared across isolated domains must be bound to a home domain
// first (Bind); DoneFrom and Wait then relay cross-domain operations through
// posts, each leg costing at least the engine lookahead, exactly like Future.
type WaitGroup struct {
	eng     *Engine
	dom     *Domain
	count   int
	waiters []*Proc
	remote  []*wgRemote
}

// wgRemote is one waiter parked on a foreign domain: the wake is posted back
// to its domain, which sets fired and resumes the proc.
type wgRemote struct {
	p     *Proc
	fired flag
}

// Bind sets the waitgroup's home domain to the engine's currently executing
// domain (the root between runs), enabling cross-domain DoneFrom/Wait during
// isolated rounds. Call it before the simulation runs; an unbound WaitGroup
// keeps the plain domain-local behavior.
func (wg *WaitGroup) Bind(e *Engine) {
	wg.eng = e
	wg.dom = e.cur
}

// Add increments the outstanding count by n (n may be negative; Done is
// Add(-1)). When the count reaches zero all waiters are woken. During
// isolated rounds it must run on the home domain; procs elsewhere use
// DoneFrom.
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
		for _, rw := range wg.remote {
			rw := rw
			wg.dom.Post(rw.p.dom, wg.eng.lookahead, func() {
				rw.fired = true
				rw.p.Wake()
			})
		}
		wg.remote = nil
	}
}

// Done decrements the outstanding count.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// DoneFrom decrements the count from proc p's domain. On the home domain (or
// outside isolated rounds) it is Done; from another domain during a round it
// relays the decrement to the home domain as a cross-domain post.
func (wg *WaitGroup) DoneFrom(p *Proc) {
	if wg.dom == nil || p.dom == wg.dom || !p.dom.inRound {
		wg.Add(-1)
		return
	}
	p.dom.Post(wg.dom, wg.eng.lookahead, func() { wg.Add(-1) })
}

// Count returns the current outstanding count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait parks the proc until the count is zero. During isolated rounds a
// waiter on a foreign domain registers with the home domain through a
// cross-domain post and is woken the same way.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.dom == nil || p.dom == wg.dom || !p.dom.inRound {
		p.ParkOn(wg)
		return
	}
	p.Settle()
	la := wg.eng.lookahead
	home, self := wg.dom, p.dom
	rw := &wgRemote{p: p}
	self.Post(home, la, func() {
		if wg.count == 0 {
			home.Post(self, la, func() {
				rw.fired = true
				p.Wake()
			})
			return
		}
		wg.remote = append(wg.remote, rw)
	})
	p.ParkOn(&rw.fired)
}

// Ready is Wait's condition as a Waiter, on the home domain: nothing
// outstanding, or p joins the waiters the last Done wakes.
func (wg *WaitGroup) Ready(p *Proc) bool {
	if wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		return false
	}
	return true
}
