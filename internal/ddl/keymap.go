package ddl

import "math/bits"

// KeyMap is an open-addressing hash table from Key to V, tuned for the
// simulator's hot paths: a Key is a single uint64, so the table stores keys
// and values in two flat slices (no per-entry allocation, no bucket
// pointers) and probes linearly from a strong 64-bit mix of the key.
//
// The zero KeyMap is empty and ready to use. Key 0 is the invalid DDL key
// and doubles as the empty-slot sentinel; inserting it panics. Deletion uses
// backward-shift compaction, so the table never accumulates tombstones and
// lookups stay O(probe distance) forever. Values of deleted entries are
// zeroed so the table does not retain pointers for the GC.
//
// Iteration order (Range) is table order, which depends on the hash layout —
// callers that need determinism must not iterate.
type KeyMap[V any] struct {
	keys []Key
	vals []V
	n    int
}

// HashKey finalizes a key with the splitmix64 mixer: cheap, and strong
// enough that the structured DDL bit fields (PE/VPE/type/object) spread
// uniformly over the table.
func HashKey(k Key) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len returns the number of stored entries.
func (m *KeyMap[V]) Len() int { return m.n }

// Get returns the value stored under k.
func (m *KeyMap[V]) Get(k Key) (V, bool) {
	var zero V
	if m.n == 0 || k == 0 {
		return zero, false
	}
	mask := uint64(len(m.keys) - 1)
	for i := HashKey(k) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k:
			return m.vals[i], true
		case 0:
			return zero, false
		}
	}
}

// Put stores v under k, replacing any existing entry.
func (m *KeyMap[V]) Put(k Key, v V) { *m.slot(k) = v }

// slot returns a pointer to the value stored under k, entering k with the
// zero value first if it is absent: a read-modify-write in one probe. The
// pointer is valid until the table next changes.
func (m *KeyMap[V]) slot(k Key) *V {
	if k == 0 {
		panic("ddl: KeyMap key 0 (invalid key)")
	}
	// Grow at 3/4 load so linear probing stays short.
	if len(m.keys) == 0 || m.n >= len(m.keys)*3/4 {
		m.grow()
	}
	mask := uint64(len(m.keys) - 1)
	for i := HashKey(k) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case k:
			return &m.vals[i]
		case 0:
			m.keys[i] = k
			m.n++
			return &m.vals[i]
		}
	}
}

// Delete removes the entry stored under k; absent keys are a no-op.
func (m *KeyMap[V]) Delete(k Key) {
	if m.n == 0 || k == 0 {
		return
	}
	mask := uint64(len(m.keys) - 1)
	i := HashKey(k) & mask
	for {
		if m.keys[i] == 0 {
			return
		}
		if m.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift compaction: pull displaced entries into the hole so no
	// tombstone is needed. An entry at j may fill slot i iff its home slot
	// is not in the cyclic range (i, j].
	var zero V
	j := i
	for {
		j = (j + 1) & mask
		if m.keys[j] == 0 {
			break
		}
		home := HashKey(m.keys[j]) & mask
		if (j-home)&mask >= (j-i)&mask {
			m.keys[i] = m.keys[j]
			m.vals[i] = m.vals[j]
			i = j
		}
	}
	m.keys[i] = 0
	m.vals[i] = zero
	m.n--
}

// Use hands an empty map its table: keys and vals of one length, a power of
// two (TableLen), zeroed and nobody else's, such as arrays in the owner's
// record. The map fills three quarters of it before it grows into a table of
// its own, twice the size.
func (m *KeyMap[V]) Use(keys []Key, vals []V) {
	if len(keys) != len(vals) || len(keys)&(len(keys)-1) != 0 {
		panic("ddl: KeyMap.Use needs keys and values of one power-of-two length")
	}
	m.keys, m.vals, m.n = keys, vals, 0
}

// Clear removes every entry and keeps the table.
func (m *KeyMap[V]) Clear() {
	clear(m.keys)
	clear(m.vals)
	m.n = 0
}

// Range calls fn for every entry in table order until fn returns false.
// The order is not deterministic across different insertion histories.
func (m *KeyMap[V]) Range(fn func(k Key, v V) bool) {
	for i, k := range m.keys {
		if k != 0 && !fn(k, m.vals[i]) {
			return
		}
	}
}

// TableLen is the length of the smallest table that holds n entries without
// growing: a power of two, 16 at least, at least 4n/3.
func TableLen(n int) int { return max(16, 1<<bits.Len(uint((4*n-1)/3))) }

func (m *KeyMap[V]) grow() {
	newCap := 16
	if len(m.keys) > 0 {
		newCap = len(m.keys) * 2
	}
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]Key, newCap)
	m.vals = make([]V, newCap)
	mask := uint64(newCap - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := HashKey(k) & mask
		for m.keys[j] != 0 {
			j = (j + 1) & mask
		}
		m.keys[j] = k
		m.vals[j] = oldVals[i]
	}
}
