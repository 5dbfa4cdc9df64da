package cap

import "repro/internal/ddl"

// keyIndex maps a DDL key to the slab slot holding its capability. It is an
// open-addressing table with ddl.KeyMap's hash (splitmix64), linear probing,
// backward-shift deletion and 3/4 load, but an entry is one uint32: the slot
// plus one in the low refBits bits and the top byte of the key's hash as a
// tag. The key itself is not stored: the slab slot already holds it, and a
// probe reads it there only when the tag matches (a different key shares the
// tag one time in 256). 0 is the empty entry, since slot+1 is never 0.
//
// The methods take the store's slabs, which must hold every indexed key at
// its slot: Remove takes the key out of the index before it zeroes the slot.
type keyIndex struct {
	refs []uint32
	n    int
}

// An entry's slot field is refBits wide, so a store holds at most maxSlots
// slots (allocSlot panics past it).
const (
	refBits  = 24
	refMask  = 1<<refBits - 1
	maxSlots = refMask
)

// tagOf is the tag field of an entry for a key hashing to h.
func tagOf(h uint64) uint32 { return uint32(h>>56) << refBits }

// find returns the slot and the capability holding k, or nil.
func (x *keyIndex) find(slabs []*slab, k ddl.Key) (uint32, *Capability) {
	if x.n == 0 {
		return 0, nil
	}
	i, c := x.probe(slabs, k, ddl.HashKey(k))
	if c == nil {
		return 0, nil
	}
	return x.refs[i]&refMask - 1, c
}

// probe walks the probe run of k, which hashes to h: it returns k's position
// and capability if k is indexed, else the run's first empty position and nil.
func (x *keyIndex) probe(slabs []*slab, k ddl.Key, h uint64) (uint64, *Capability) {
	tag, mask := tagOf(h), uint64(len(x.refs)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		r := x.refs[i]
		if r == 0 {
			return i, nil
		}
		if r&^refMask == tag {
			if c := slotIn(slabs, r&refMask-1); c.Key == k {
				return i, c
			}
		}
	}
}

// reserve makes room for k, growing the table if one more entry would pass
// 3/4 load, and returns the position and hash fill takes to index it there;
// or, with them, the capability already holding k. One probe both checks
// for a duplicate and finds the place.
func (x *keyIndex) reserve(slabs []*slab, k ddl.Key) (pos, h uint64, dup *Capability) {
	if len(x.refs) == 0 || x.n >= len(x.refs)*3/4 {
		x.grow(slabs)
	}
	h = ddl.HashKey(k)
	pos, dup = x.probe(slabs, k, h)
	return pos, h, dup
}

// fill indexes slot at the position reserve returned, with no entry placed
// since.
func (x *keyIndex) fill(pos, h uint64, slot uint32) {
	x.refs[pos] = tagOf(h) | (slot + 1)
	x.n++
}

// remove takes k out of the index and returns the slot and the capability
// that hold it; the capability is nil if k was absent.
func (x *keyIndex) remove(slabs []*slab, k ddl.Key) (uint32, *Capability) {
	if x.n == 0 {
		return 0, nil
	}
	i, c := x.probe(slabs, k, ddl.HashKey(k))
	if c == nil {
		return 0, nil
	}
	slot := x.refs[i]&refMask - 1
	// Backward-shift compaction, as in ddl.KeyMap: an entry at j may fill
	// the hole at i iff its home position is not in the cyclic range (i, j].
	mask := uint64(len(x.refs) - 1)
	for j := (i + 1) & mask; x.refs[j] != 0; j = (j + 1) & mask {
		r := x.refs[j]
		home := ddl.HashKey(slotIn(slabs, r&refMask-1).Key) & mask
		if (j-home)&mask >= (j-i)&mask {
			x.refs[i], i = r, j
		}
	}
	x.refs[i] = 0
	x.n--
	return slot, c
}

// grow doubles the table (16 entries to start) and moves every entry to the
// first empty position from its new home, hashing the key its slot holds.
func (x *keyIndex) grow(slabs []*slab) {
	old := x.refs
	x.refs = make([]uint32, max(16, 2*len(old)))
	mask := uint64(len(x.refs) - 1)
	for _, r := range old {
		if r == 0 {
			continue
		}
		i := ddl.HashKey(slotIn(slabs, r&refMask-1).Key) & mask
		for x.refs[i] != 0 {
			i = (i + 1) & mask
		}
		x.refs[i] = r
	}
}
