package sim

// Blocks hands out records of type T from blocks of several, so that an
// owner making many records over its life allocates once per block instead
// of once per record. A record is never handed out twice: there is no free
// operation, and a block is garbage once none of its records is referenced.
// That makes a Blocks right for records that live as long as their owner
// (the VPEs, sessions and open files of one machine) or that go back to a
// Recycler, and wrong for short-lived records that nobody recycles, whose
// blocks a single survivor would pin.
//
// A Blocks belongs to the object that owns the records, and dies with it;
// nothing shares one across machines. The zero value is ready to use. Like
// the rest of a simulation, it is not safe for concurrent use.
type Blocks[T any] struct {
	spare []T // the current block's records not yet handed out
}

// New returns a pointer to a zeroed T: Take(1, block)'s one record.
func (b *Blocks[T]) New(block int) *T { return &b.Take(1, block)[0] }

// Take returns n zeroed records in a row, capped at n, so that appending
// to the run copies it out instead of writing into the next one. It
// allocates only when the current block is too short, and then makes a
// block of max(n, block) records; the rest of the short block is never
// handed out. Take(0, block) is nil.
func (b *Blocks[T]) Take(n, block int) []T {
	if n == 0 {
		return nil
	}
	if len(b.spare) < n {
		b.spare = make([]T, max(n, block))
	}
	run := b.spare[:n:n]
	if len(b.spare) == n {
		// Reslicing to length 0 would keep the run's address, and with it
		// the whole block, reachable from b.
		b.spare = nil
	} else {
		b.spare = b.spare[n:]
	}
	return run
}

// Use makes spare the next block: Take and New hand out its records, which
// must be zero and nobody else's, before they allocate one. An owner that
// knows how many records it will make (a preloaded image) sizes one block
// for them, or lends storage of its own (a handle array in its record).
func (b *Blocks[T]) Use(spare []T) { b.spare = spare }

// Recycler hands out records of type T for reuse: New returns the record
// released last, if any, and carves a zeroed one from Blocks otherwise; Put
// takes a record back. Held counts the records out, so an owner that must
// get every record home — a drained machine — can check it did. A reused
// record is what Put got: the owner resets it before Put, keeping what must
// survive reuse (a grown slice), and tells a fresh
// record by such a field still being zero. Like Blocks, a Recycler belongs
// to its owner; the zero value is ready to use.
type Recycler[T any] struct {
	blocks Blocks[T]
	free   []*T
	held   int
}

// New returns a released record, or a zeroed one from a block of
// max(block, 1) records; block 1 allocates each record on its own.
func (r *Recycler[T]) New(block int) *T {
	r.held++
	if n := len(r.free); n > 0 {
		x := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return x
	}
	return r.blocks.New(block)
}

// Put takes x back for a later New. A record put back twice is handed out
// twice.
func (r *Recycler[T]) Put(x *T) {
	r.held--
	r.free = append(r.free, x)
}

// UseFree gives the free list its storage, as FIFO.Use does a queue's.
func (r *Recycler[T]) UseFree(free []*T) { r.free = free[:0] }

// Held returns how many records New handed out that are not back yet.
func (r *Recycler[T]) Held() int { return r.held }

// Idle returns how many released records wait for reuse.
func (r *Recycler[T]) Idle() int { return len(r.free) }
