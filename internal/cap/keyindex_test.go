package cap

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ddl"
)

// collidingKeys returns keys that all share their home position in every
// table of up to 256 entries (the low 8 bits of the hash) and their tag (the
// top 8): a lookup of any of them meets all the others on its probe run and
// has to read their keys from the slabs.
var collidingKeys = sync.OnceValue(func() []ddl.Key {
	const want = 32
	home := ddl.HashKey(1)
	keys := []ddl.Key{1}
	for k := ddl.Key(2); len(keys) < want; k++ {
		if h := ddl.HashKey(k); h&0xff == home&0xff && h>>56 == home>>56 {
			keys = append(keys, k)
		}
	}
	return keys
})

// FuzzKeyIndex plays inserts, removes and lookups on a key index over real
// slabs against a map from key to slot. Two bytes make one step: the first
// picks the operation — insert the next key of the colliding pool, insert a
// fresh key, remove the present key the second byte picks, or look up the key
// the second byte picks among all keys used so far and the next colliding one
// (a miss that matches home and tag). Slots are handed out as the store does:
// freed ones first, last in first out. After every step every key used so
// far looks up what the map holds, and the index counts the map's entries.
func FuzzKeyIndex(f *testing.F) {
	// 30 colliding keys: the table grows 16 → 32 → 64 with one cluster of
	// 30, then the removals shift it back entry by entry.
	var grow []byte
	for i := 0; i < 30; i++ {
		grow = append(grow, 0, 0)
	}
	for i := 0; i < 30; i++ {
		grow = append(grow, 2, byte(7*i), 3, byte(i))
	}
	f.Add(grow)
	// Colliding and fresh keys interleaved, removed from the middle.
	var mixed []byte
	for i := 0; i < 40; i++ {
		mixed = append(mixed, byte(i%2), 0)
		if i%5 == 4 {
			mixed = append(mixed, 2, byte(3*i), 3, byte(i))
		}
	}
	f.Add(mixed)
	f.Add([]byte{0, 0, 0, 0, 2, 0, 3, 0, 3, 1, 0, 0, 1, 0, 2, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		pool := collidingKeys()
		var (
			x       keyIndex
			slabs   []*slab
			free    []uint32
			used    uint32
			model   = make(map[ddl.Key]uint32)
			present []ddl.Key // in insertion order, for a deterministic pick
			seen    []ddl.Key
			nextCol int
			fresh   = ddl.Key(1 << 40)
		)
		insert := func(k ddl.Key) {
			var slot uint32
			if n := len(free); n > 0 {
				slot, free = free[n-1], free[:n-1]
			} else {
				slot = used
				used++
				if int(slot/slabSize) == len(slabs) {
					slabs = append(slabs, new(slab))
				}
			}
			pos, h, dup := x.reserve(slabs, k)
			if dup != nil {
				t.Fatalf("fresh key %#x found in slot %d", uint64(k), model[k])
			}
			slotIn(slabs, slot).Key = k
			x.fill(pos, h, slot)
			model[k] = slot
			present = append(present, k)
			seen = append(seen, k)
		}
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step]&3, int(data[step+1])
			switch {
			case op == 0 && nextCol < len(pool):
				insert(pool[nextCol])
				nextCol++
			case op <= 1:
				fresh++
				insert(fresh)
			case op == 2:
				if len(present) == 0 {
					break
				}
				i := arg % len(present)
				k := present[i]
				slot, c := x.remove(slabs, k)
				if c == nil || c.Key != k || slot != model[k] {
					t.Fatalf("step %d: remove(%#x) = %d, %v, want %d", step/2, uint64(k), slot, c, model[k])
				}
				slotIn(slabs, slot).Key = 0
				free = append(free, slot)
				delete(model, k)
				present = append(present[:i], present[i+1:]...)
			case op == 3:
				k := ddl.Key(0)
				if i := arg % (len(seen) + 1); i < len(seen) {
					k = seen[i]
				} else if nextCol < len(pool) {
					k = pool[nextCol]
				}
				want, wantOK := model[k]
				if got, c := x.find(slabs, k); c != nil != wantOK || got != want {
					t.Fatalf("step %d: find(%#x) = %d, %v, want %d, %v", step/2, uint64(k), got, c, want, wantOK)
				}
			}
			if x.n != len(model) {
				t.Fatalf("step %d: index counts %d entries, map %d", step/2, x.n, len(model))
			}
			for _, k := range seen {
				want, wantOK := model[k]
				if got, c := x.find(slabs, k); c != nil != wantOK || got != want {
					t.Fatalf("step %d: key %#x looks up %d, %v, want %d, %v", step/2, uint64(k), got, c, want, wantOK)
				}
			}
		}
	})
}

// The seeds of FuzzKeyIndex cross two growths with one cluster.
func TestKeyIndexCollidingGrowth(t *testing.T) {
	pool := collidingKeys()
	var x keyIndex
	slabs := []*slab{new(slab)}
	for i, k := range pool[:30] {
		pos, h, _ := x.reserve(slabs, k)
		slotIn(slabs, uint32(i)).Key = k
		x.fill(pos, h, uint32(i))
	}
	if len(x.refs) != 64 {
		t.Fatalf("30 keys in a table of %d, want 64", len(x.refs))
	}
	for i, k := range pool[:30] {
		if slot, c := x.find(slabs, k); c == nil || slot != uint32(i) {
			t.Fatalf("key %d looks up %d, %v", i, slot, c)
		}
	}
	if _, c := x.find(slabs, pool[30]); c != nil {
		t.Fatal("an absent key with the same home and tag was found")
	}
}

// A store whose slots would overflow the key index's slot field panics with
// the limit in its message.
func TestStoreSlotLimit(t *testing.T) {
	s := NewStore()
	s.used = maxSlots
	defer func() {
		r := recover()
		if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, fmt.Sprint(1<<24-1)) {
			t.Fatalf("slot %d: panic %v, want one naming the limit", maxSlots, r)
		}
	}()
	s.allocSlot()
}
