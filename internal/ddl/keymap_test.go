package ddl

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKeyMapBasics(t *testing.T) {
	var m KeyMap[int] // zero value is ready to use
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, ok := m.Get(NewKey(1, 1, TypeMem, 0)); ok {
		t.Fatal("empty map returned a value")
	}
	k1 := NewKey(1, 1, TypeMem, 1)
	k2 := NewKey(1, 1, TypeMem, 2)
	m.Put(k1, 10)
	m.Put(k2, 20)
	m.Put(k1, 11) // overwrite
	if v, ok := m.Get(k1); !ok || v != 11 {
		t.Fatalf("Get(k1) = %d, %v", v, ok)
	}
	if v, ok := m.Get(k2); !ok || v != 20 {
		t.Fatalf("Get(k2) = %d, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	m.Delete(k1)
	m.Delete(k1) // absent delete is a no-op
	if _, ok := m.Get(k1); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 1 {
		t.Fatalf("Len after delete = %d", m.Len())
	}
	n := 0
	m.Range(func(k Key, v int) bool {
		if k != k2 || v != 20 {
			t.Fatalf("Range visited %v=%d", k, v)
		}
		n++
		return true
	})
	if n != 1 {
		t.Fatalf("Range visited %d entries", n)
	}
}

func TestKeyMapZeroKeyPanics(t *testing.T) {
	var m KeyMap[int]
	defer func() {
		if recover() == nil {
			t.Error("Put(0) did not panic")
		}
	}()
	m.Put(0, 1)
}

// Property: a KeyMap agrees with a builtin map under random put/get/delete
// sequences, across growth and backward-shift deletion.
func TestKeyMapMatchesMap(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var m KeyMap[uint64]
		ref := make(map[Key]uint64)
		var keys []Key
		ops := int(n)%1000 + 50
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(10); {
			case r < 5:
				// Cluster keys deliberately (small object ids) so linear
				// probe chains and backward shifts actually happen.
				k := NewKey(rng.Intn(4), rng.Intn(4), TypeMem, uint64(rng.Intn(64)))
				v := rng.Uint64()
				m.Put(k, v)
				ref[k] = v
				keys = append(keys, k)
			case r < 8 && len(keys) > 0:
				k := keys[rng.Intn(len(keys))]
				m.Delete(k)
				delete(ref, k)
			default:
				k := NewKey(rng.Intn(4), rng.Intn(4), TypeMem, uint64(rng.Intn(64)))
				v, ok := m.Get(k)
				rv, rok := ref[k]
				if ok != rok || v != rv {
					return false
				}
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, rv := range ref {
			if v, ok := m.Get(k); !ok || v != rv {
				return false
			}
		}
		seen := 0
		m.Range(func(k Key, v uint64) bool {
			if rv, ok := ref[k]; !ok || rv != v {
				return false
			}
			seen++
			return true
		})
		return seen == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTableLenHoldsWithoutGrowing: a table of TableLen(n) entries takes n
// keys without growing, and half its length would not.
func TestTableLenHoldsWithoutGrowing(t *testing.T) {
	for n := 0; n <= 1000; n++ {
		size := TableLen(n)
		m := KeyMap[int]{keys: make([]Key, size), vals: make([]int, size)}
		for k := 1; k <= n; k++ {
			m.Put(Key(k), k)
		}
		if len(m.keys) != size {
			t.Fatalf("TableLen(%d) = %d grew to %d", n, size, len(m.keys))
		}
		if size > 16 && size/2*3/4 >= n {
			t.Fatalf("TableLen(%d) = %d, but %d holds it", n, size, size/2)
		}
	}
}

// TestKeyMapUseAndClear: a map given its table by Use fills three quarters
// of it without allocating and then grows as a zero map would; Clear empties
// it and keeps the table, so it fills again without allocating (each run of
// the measured func clears and fills it).
func TestKeyMapUseAndClear(t *testing.T) {
	var keys [32]Key
	var vals [32]int
	var m KeyMap[int]
	m.Use(keys[:], vals[:])
	fill := func() {
		for i := 1; i <= 24; i++ {
			m.Put(Key(i), i)
		}
	}
	if allocs := testing.AllocsPerRun(4, func() { m.Clear(); fill() }); allocs != 0 {
		t.Fatalf("filling 24 of a given 32-entry table allocates %v times, want 0", allocs)
	}
	if v, ok := m.Get(7); !ok || v != 7 || m.Len() != 24 || &m.keys[0] != &keys[0] {
		t.Fatalf("Get(7) = %d, %v with %d entries", v, ok, m.Len())
	}
	m.Clear()
	if _, ok := m.Get(7); ok || m.Len() != 0 || keys != [32]Key{} {
		t.Fatal("Clear left an entry behind")
	}
	fill()
	m.Put(25, 25) // past three quarters: a table of its own
	if &m.keys[0] == &keys[0] || len(m.keys) != 64 || m.Len() != 25 {
		t.Fatalf("the 25th entry left the map in a table of %d", len(m.keys))
	}
	for i := 1; i <= 25; i++ {
		if v, ok := m.Get(Key(i)); !ok || v != i {
			t.Fatalf("after growing, Get(%d) = %d, %v", i, v, ok)
		}
	}
}
