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

// TestCapabilitySize pins the slab slot. A slab holds pointers, so the
// allocator puts an 8 B header in front of it: 63 slots of 64 B and the header
// make 4040 B, served from the 4096 B size class, 65 B per slot. At 72 B a
// capability the slab would need 4544 B and the 4864 B class (77 B per slot);
// 64 slots of 64 B would need 4104 B and land there too. Capability has no
// padding left, so a field added to it pays that.
func TestCapabilitySize(t *testing.T) {
	if got := unsafe.Sizeof(Capability{}); got != 64 {
		t.Fatalf("Capability is %d B, want 64", got)
	}
	// The allocator's statistics count allocations per size class.
	served := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		for _, c := range m.BySize {
			if c.Size == 4096 {
				return c.Mallocs
			}
		}
		t.Fatal("no 4096 B size class")
		return 0
	}
	const n = 64
	var slabs [n]*slab
	before := served()
	for i := range slabs {
		slabs[i] = new(slab)
	}
	if got := served() - before; got < n {
		t.Fatalf("%d of %d slabs of %d B came from the 4096 B size class", got, n, unsafe.Sizeof(slab{}))
	}
	runtime.KeepAlive(&slabs)
}

// TestStoreFootprint pins what one stored capability costs: live heap bytes
// and heap allocations per capability over a store of 64Ki capabilities in
// trees of 128 — the quantity the repo benchmark reports as
// cap.probe_bytes_per_cap. The ceilings sit about 5% above what the store
// measures today: 88.5 B and 0.0230 allocations per capability (slab, chunk
// arena and index growth only — a capability is not a heap object of its
// own). Of the 88.5 B, 65 are the slab slot, 8 the key index, 11 the child
// chunks and 5 the selector pages.
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
	// The child arena grows in blocks, so it holds less than a block more
	// than it handed out: 22 528 chunk slots for 21 845.
	slots := cap(s.chunks) + len(s.chunkBlocks)*chunkBlock
	t.Logf("child arena: %d chunk slots for %d chunks", slots, s.nChunks)
	if slots-int(s.nChunks) >= chunkBlock {
		t.Errorf("child arena: %d chunk slots for %d chunks, more than a block of %d unused", slots, s.nChunks, chunkBlock)
	}
	if perCap > 93 {
		t.Errorf("%.1f live bytes per capability, ceiling 93", perCap)
	}
	if allocs > 0.024 {
		t.Errorf("%.4f allocations per capability, ceiling 0.024", allocs)
	}
}
