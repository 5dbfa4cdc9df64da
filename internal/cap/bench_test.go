package cap

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/ddl"
	"repro/internal/dtu"
)

// benchVPEs/benchChildren shape one iteration's forest: benchVPEs roots
// with benchChildren derives each — wide enough to chain many child chunks.
const (
	benchVPEs     = 8
	benchChildren = 128
)

func benchKey(vpe int, i int) ddl.Key {
	return ddl.NewKey(1, vpe+1, ddl.TypeMem, uint64(i)+1)
}

// benchSlabOp is one iteration of the kernel's hot loop on the store: mint
// a derive tree per VPE, look every capability up by key, revoke the trees.
func benchSlabOp(s *Store, obj Object) {
	var roots [benchVPEs]*Capability
	for v := 0; v < benchVPEs; v++ {
		roots[v] = s.Insert(&Capability{
			Key: benchKey(v, 0), Owner: v, Sel: s.AllocSel(v),
			Object: obj, Perm: dtu.PermRW,
		})
	}
	for v := 0; v < benchVPEs; v++ {
		root := roots[v]
		for i := 0; i < benchChildren; i++ {
			child := s.Insert(&Capability{
				Key: benchKey(v, i+1), Owner: v, Sel: s.AllocSel(v),
				Object: obj, Perm: dtu.PermR, Parent: root.Key,
			})
			root.AddChild(child.Key)
		}
	}
	for v := 0; v < benchVPEs; v++ {
		for i := 0; i <= benchChildren; i++ {
			if s.Lookup(benchKey(v, i)) == nil {
				panic("lookup miss")
			}
		}
	}
	for v := 0; v < benchVPEs; v++ {
		root := roots[v]
		root.ForEachChild(func(k ddl.Key) { s.Remove(k) })
		root.resetChildren()
		s.Remove(root.Key)
	}
}

// BenchmarkStoreSlab measures the slab store on insert+lookup+revoke.
// The store persists across iterations (selectors stay monotonic, slots
// recycle), matching a kernel's steady state.
func BenchmarkStoreSlab(b *testing.B) {
	s := NewStore()
	obj := &MemObject{PE: 1, Size: 4096, Perm: dtu.PermRW}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSlabOp(s, obj)
	}
}

// heapNow is the live heap and the allocation count after a collection.
func heapNow() (bytes, mallocs uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.Mallocs
}

// TestCapabilitySize pins the slab slot. 72 B makes a 64-slot slab 4608 B,
// which the allocator serves from its 4864 B size class (76 B per slot); at
// 80 B the slab would be 5120 B and land in the 5376 B class (84 B per slot).
// A field added to Capability must fit the tail padding or pay that.
func TestCapabilitySize(t *testing.T) {
	if got := unsafe.Sizeof(Capability{}); got != 72 {
		t.Fatalf("Capability is %d B, want 72", got)
	}
}

// TestStoreFootprint pins what one stored capability costs: live heap bytes
// and heap allocations per capability over a store of 64Ki capabilities in
// trees of 128 — the quantity the repo benchmark reports as
// cap.probe_bytes_per_cap. The ceilings sit a few percent above what the
// store measures today: 117.8 B and 0.023 allocations per capability (slab,
// chunk arena and index growth only — a capability is not a heap object of
// its own).
func TestStoreFootprint(t *testing.T) {
	const n, children = 1 << 16, 128
	baseBytes, baseMallocs := heapNow()
	s := NewStore()
	obj := &MemObject{Size: 4096, Perm: dtu.PermRW}
	var root *Capability
	for i := 0; i < n; i++ {
		v := i / (children + 1) % 64
		c := &Capability{Key: benchKey(v, i), Owner: v, Sel: s.AllocSel(v), Object: obj, Perm: dtu.PermR}
		if i%(children+1) == 0 {
			root = s.Insert(c)
			continue
		}
		c.Parent = root.Key
		root.AddChild(s.Insert(c).Key)
	}
	bytes, mallocs := heapNow()
	runtime.KeepAlive(s)
	perCap := float64(bytes-min(bytes, baseBytes)) / n
	allocs := float64(mallocs-baseMallocs) / n
	t.Logf("slab store: %.1f live B/cap, %.4f allocs/cap", perCap, allocs)
	if perCap > 123 {
		t.Errorf("%.1f live bytes per capability, ceiling 123", perCap)
	}
	if allocs > 0.025 {
		t.Errorf("%.4f allocations per capability, ceiling 0.025", allocs)
	}
}
