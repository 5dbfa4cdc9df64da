package sim

// FIFO is a first-in-first-out queue over a slice with a head index. Unlike
// the `q = q[1:]` / `append` idiom, which abandons the backing array every
// time the queue drains and so allocates per element in a queue that hovers
// around empty, a FIFO keeps its capacity: a drained queue rewinds to the
// start of its array, and a full array with a dead prefix of at least half
// its length slides the live elements down instead of growing. Popped slots
// are zeroed so the queue never pins what it no longer holds. The zero value
// is an empty queue.
//
// An element pushed into an empty queue goes into the record itself
// (first), and head is -1 while it is there: it is the head, and anything
// pushed behind it goes to the array. Most queues of a machine — a reply
// endpoint's messages and waiter, a semaphore's waiters — never hold more
// than one element, and so never allocate an array at all.
type FIFO[T any] struct {
	first T
	items []T
	head  int
}

// Use hands an empty queue the array its elements spill into: storage its
// owner sized at boot, which the queue grows past only by copying out.
func (f *FIFO[T]) Use(items []T) { f.items = items[:0] }

// Len returns the number of queued elements.
func (f *FIFO[T]) Len() int { return len(f.items) - f.head }

// Push appends v at the tail.
func (f *FIFO[T]) Push(v T) {
	if f.Len() == 0 {
		// A drained queue has rewound: items is empty and head 0.
		f.first, f.head = v, -1
		return
	}
	if n := len(f.items); n == cap(f.items) && f.head > 0 && f.head >= n/2 {
		// Sliding at most half the array frees at least as many slots, so
		// the copy stays amortized O(1) per push.
		live := copy(f.items, f.items[f.head:])
		clear(f.items[live:])
		f.items = f.items[:live]
		f.head = 0
	}
	f.items = append(f.items, v)
}

// Pop removes and returns the head element. It panics on an empty queue.
func (f *FIFO[T]) Pop() T {
	var zero T
	if f.head < 0 {
		v := f.first
		f.first, f.head = zero, 0
		return v
	}
	v := f.items[f.head]
	f.items[f.head] = zero
	f.head++
	if f.head == len(f.items) {
		f.items = f.items[:0]
		f.head = 0
	}
	return v
}
