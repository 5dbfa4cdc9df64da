package sim

// Blocks hands out records of type T from blocks of several, so that an
// owner making many records over its life allocates once per block instead
// of once per record. A record is never handed out twice: there is no free
// operation, and a block is garbage once none of its records is referenced.
// That makes a Blocks right for records that live as long as their owner
// (the VPEs, sessions and open files of one machine) or that the owner
// recycles through a free list of its own, and wrong for short-lived
// records that nobody recycles, whose blocks a single survivor would pin.
//
// A Blocks belongs to the object that owns the records, and dies with it;
// nothing shares one across machines. The zero value is ready to use. Like
// the rest of a simulation, it is not safe for concurrent use.
type Blocks[T any] struct {
	spare []T // the current block's records not yet handed out
}

// New returns a pointer to a zeroed T. It allocates only when the current
// block is used up, and then makes a block of max(block, 1) records: the
// owner sizes each block from what it knows when it asks.
func (b *Blocks[T]) New(block int) *T {
	if len(b.spare) == 0 {
		b.spare = make([]T, max(block, 1))
	}
	r := &b.spare[0]
	if len(b.spare) == 1 {
		// Reslicing to length 0 would keep the last record's address,
		// and with it the whole block, reachable from b.
		b.spare = nil
	} else {
		b.spare = b.spare[1:]
	}
	return r
}
