package cap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ddl"
	"repro/internal/dtu"
)

func memCap(g *ddl.Generator, vpe int, sel Selector) *Capability {
	return &Capability{
		Key:    g.Next(0, vpe, ddl.TypeMem),
		Owner:  vpe,
		Sel:    sel,
		Object: &MemObject{PE: 1, Off: 0, Size: 4096, Perm: dtu.PermRW},
		Perm:   dtu.PermRW,
	}
}

func TestStoreInsertLookup(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	c := s.Insert(memCap(g, 1, s.AllocSel(1)))
	if s.Lookup(c.Key) != c {
		t.Fatal("Lookup by key failed")
	}
	if s.LookupSel(1, c.Sel) != c {
		t.Fatal("Lookup by selector failed")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreRemove(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	c := s.Insert(memCap(g, 1, s.AllocSel(1)))
	key, sel := c.Key, c.Sel
	s.Remove(key)
	if s.Lookup(key) != nil || s.LookupSel(1, sel) != nil {
		t.Fatal("capability still visible after Remove")
	}
	s.Remove(key) // removing absent key is a no-op
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDuplicateKeyPanics(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	c := memCap(g, 1, s.AllocSel(1))
	s.Insert(c)
	dup := *c
	dup.Sel = s.AllocSel(1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate key insert did not panic")
		}
	}()
	s.Insert(&dup)
}

func TestStoreSelectorCollisionPanics(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	a := memCap(g, 1, 5)
	b := memCap(g, 1, 5)
	s.Insert(a)
	defer func() {
		if recover() == nil {
			t.Error("selector collision did not panic")
		}
	}()
	s.Insert(b)
}

func TestChildLinks(t *testing.T) {
	g := ddl.NewGenerator()
	parent := memCap(g, 1, 1)
	child := memCap(g, 2, 1)
	child.Parent = parent.Key
	parent.AddChild(child.Key)
	if !parent.HasChild(child.Key) {
		t.Fatal("child not linked")
	}
	if parent.NumChildren() != 1 {
		t.Fatalf("NumChildren = %d", parent.NumChildren())
	}
	parent.RemoveChild(child.Key)
	if parent.HasChild(child.Key) {
		t.Fatal("child not removed")
	}
	parent.RemoveChild(child.Key) // absent removal is a no-op
}

func TestDuplicateChildPanics(t *testing.T) {
	defer func(old bool) { Debug = old }(Debug)
	Debug = true // the duplicate scan is a debug-gated assert
	g := ddl.NewGenerator()
	parent := memCap(g, 1, 1)
	child := memCap(g, 2, 1)
	parent.AddChild(child.Key)
	defer func() {
		if recover() == nil {
			t.Error("duplicate child did not panic")
		}
	}()
	parent.AddChild(child.Key)
}

// Children of a stored capability must survive the inline→spill transition
// and keep creation order under interleaved removals.
func TestChildSpill(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	parent := s.Insert(memCap(g, 1, 1))
	var want []ddl.Key
	for i := 0; i < 4*chunkKeys+inlineChildren+2; i++ {
		k := g.Next(0, 2, ddl.TypeMem)
		parent.AddChild(k)
		want = append(want, k)
	}
	got := parent.AppendChildren(nil)
	if len(got) != len(want) {
		t.Fatalf("%d children, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("child %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Remove every other child: survivors keep creation order.
	for i := 0; i < len(want); i += 2 {
		parent.RemoveChild(want[i])
	}
	var still []ddl.Key
	for i := 1; i < len(want); i += 2 {
		still = append(still, want[i])
	}
	got = parent.AppendChildren(nil)
	if len(got) != len(still) {
		t.Fatalf("%d children after removal, want %d", len(got), len(still))
	}
	for i := range still {
		if got[i] != still[i] {
			t.Fatalf("child %d = %v, want %v after removal", i, got[i], still[i])
		}
	}
	// Removing the rest releases all spill storage.
	for _, k := range still {
		parent.RemoveChild(k)
	}
	if parent.NumChildren() != 0 {
		t.Fatalf("%d children left", parent.NumChildren())
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(s.freeChunks) != len(s.chunks) {
		t.Fatalf("%d of %d chunks still owned", len(s.chunks)-len(s.freeChunks), len(s.chunks))
	}
}

// A free-standing capability has no arena to spill into: it takes
// inlineChildren children, and one more is a protocol bug.
func TestFreeStandingChildLimit(t *testing.T) {
	g := ddl.NewGenerator()
	c := memCap(g, 1, 1)
	for i := 0; i < inlineChildren; i++ {
		c.AddChild(g.Next(0, 2, ddl.TypeMem))
	}
	if c.NumChildren() != inlineChildren {
		t.Fatalf("NumChildren = %d, want %d", c.NumChildren(), inlineChildren)
	}
	defer func() {
		if recover() == nil {
			t.Error("spilling a free-standing capability did not panic")
		}
	}()
	c.AddChild(g.Next(0, 2, ddl.TypeMem))
}

// The generation lives in the slot: it survives Insert's copy and Remove's
// zeroing, so a handle stays stale however often its slot is recycled.
func TestHandleStaleAcrossSlotReuse(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	c := s.Insert(memCap(g, 1, s.AllocSel(1)))
	old := s.HandleOf(c)
	for i := 0; i < 4; i++ {
		s.Remove(c.Key)
		d := s.Insert(memCap(g, 1, s.AllocSel(1)))
		if d != c {
			t.Fatalf("cycle %d: Insert did not recycle the freed slot", i)
		}
		if s.Resolve(old) != nil {
			t.Fatalf("cycle %d: stale handle resolved", i)
		}
		if h := s.HandleOf(d); h == old || s.Resolve(h) != d {
			t.Fatalf("cycle %d: fresh handle %#x does not resolve", i, h)
		}
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A freed slot may keep its generation and nothing else.
func TestFreeSlotKeepsOnlyGeneration(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	keep := s.Insert(memCap(g, 1, s.AllocSel(1)))
	c := s.Insert(memCap(g, 1, s.AllocSel(1)))
	s.Remove(c.Key)
	if c.gen == 0 {
		t.Fatal("Remove did not bump the slot's generation")
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatalf("freed slot with only a generation rejected: %v", err)
	}
	c.Object = keep.Object
	if s.CheckLocalInvariants() == nil {
		t.Fatal("freed slot holding an Object accepted")
	}
	c.Object, c.store = nil, s
	if s.CheckLocalInvariants() == nil {
		t.Fatal("freed slot holding a store accepted")
	}
}

func TestHandles(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	c := s.Insert(memCap(g, 1, s.AllocSel(1)))
	h := s.HandleOf(c)
	if h == NoHandle {
		t.Fatal("stored cap has no handle")
	}
	if s.Resolve(h) != c {
		t.Fatal("Resolve did not return the stored cap")
	}
	key := c.Key
	s.Remove(key)
	if s.Resolve(h) != nil {
		t.Fatal("stale handle resolved after Remove")
	}
	// Slot reuse must not resurrect the old handle.
	d := s.Insert(memCap(g, 1, s.AllocSel(1)))
	if s.Resolve(h) != nil {
		t.Fatal("stale handle resolved into a reused slot")
	}
	if s.Resolve(s.HandleOf(d)) != d {
		t.Fatal("fresh handle failed")
	}
	if s.HandleOf(nil) != NoHandle {
		t.Fatal("nil cap must have NoHandle")
	}
}

func TestVPECapsSorted(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	sels := []Selector{5, 1, 9, 3}
	for _, sel := range sels {
		s.Insert(memCap(g, 7, sel))
	}
	caps := s.VPECaps(7)
	if len(caps) != 4 {
		t.Fatalf("len = %d", len(caps))
	}
	for i := 1; i < len(caps); i++ {
		if caps[i-1].Sel >= caps[i].Sel {
			t.Fatal("VPECaps not sorted by selector")
		}
	}
	if s.VPECaps(99) != nil {
		t.Fatal("unknown VPE returned caps")
	}
	// AllocSel must not collide with the directly chosen selectors.
	if sel := s.AllocSel(7); sel <= 9 {
		t.Fatalf("AllocSel returned colliding selector %d", sel)
	}
}

func TestInvariantViolationDetected(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	parent := memCap(g, 1, 1)
	child := memCap(g, 2, 1)
	child.Parent = parent.Key
	// Corrupt: child claims parent, but parent does not list it.
	parent = s.Insert(parent)
	s.Insert(child)
	if err := s.CheckLocalInvariants(); err == nil {
		t.Fatal("invariant violation not detected")
	}
	parent.AddChild(child.Key)
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestObjectTypes(t *testing.T) {
	objs := map[ddl.Type]Object{
		ddl.TypeVPE:     &VPEObject{},
		ddl.TypeMem:     &MemObject{},
		ddl.TypeSend:    &SendObject{},
		ddl.TypeRecv:    &RecvObject{},
		ddl.TypeService: &ServiceObject{},
		ddl.TypeSession: &SessionObject{},
	}
	for want, obj := range objs {
		if obj.ObjType() != want {
			t.Errorf("%T.ObjType() = %v, want %v", obj, obj.ObjType(), want)
		}
	}
	c := &Capability{}
	if c.Type() != ddl.TypeInvalid {
		t.Error("nil object should give TypeInvalid")
	}
}

// refCap / refModel are a deliberately naive map-based reference model of
// the Store (the pre-slab implementation's shape) for the property test.
type refCap struct {
	key      ddl.Key
	owner    int
	sel      Selector
	parent   ddl.Key
	children []ddl.Key
}

type refModel struct {
	caps  map[ddl.Key]*refCap
	byVPE map[int]map[Selector]*refCap
}

func newRefModel() *refModel {
	return &refModel{caps: make(map[ddl.Key]*refCap), byVPE: make(map[int]map[Selector]*refCap)}
}

func (m *refModel) insert(c *refCap) {
	m.caps[c.key] = c
	vm := m.byVPE[c.owner]
	if vm == nil {
		vm = make(map[Selector]*refCap)
		m.byVPE[c.owner] = vm
	}
	vm[c.sel] = c
}

func (m *refModel) remove(k ddl.Key) {
	c := m.caps[k]
	if c == nil {
		return
	}
	delete(m.caps, k)
	delete(m.byVPE[c.owner], c.sel)
}

func (m *refModel) vpeCaps(vpe int) []*refCap {
	var caps []*refCap
	for _, c := range m.byVPE[vpe] {
		caps = append(caps, c)
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].sel < caps[j].sel })
	return caps
}

// Property: after any sequence of inserts, child links, revoke-unlinks and
// removes — with and without selector reuse — the slab store agrees with
// the map-based reference model and its local invariants hold.
func TestStoreRandomOpsProperty(t *testing.T) {
	for _, reuse := range []bool{false, true} {
		f := func(seed int64, n uint16) bool {
			rng := rand.New(rand.NewSource(seed))
			s := NewStore()
			s.ReuseSelectors = reuse
			g := ddl.NewGenerator()
			ref := newRefModel()
			var keys []ddl.Key
			ops := int(n)%300 + 20
			for i := 0; i < ops; i++ {
				switch op := rng.Intn(10); {
				case op < 6 || len(keys) == 0: // insert, maybe linked under a parent
					vpe := rng.Intn(4)
					sel := s.AllocSel(vpe)
					c := memCap(g, vpe, sel)
					rc := &refCap{key: c.Key, owner: vpe, sel: sel}
					if len(keys) > 0 && rng.Intn(2) == 0 {
						pk := keys[rng.Intn(len(keys))]
						parent := s.Lookup(pk)
						rp := ref.caps[pk]
						c.Parent = pk
						rc.parent = pk
						parent.AddChild(c.Key)
						rp.children = append(rp.children, c.Key)
					}
					s.Insert(c)
					ref.insert(rc)
					keys = append(keys, c.Key)
				default: // remove with revoke-style unlink from the parent
					i := rng.Intn(len(keys))
					k := keys[i]
					rc := ref.caps[k]
					if rc.parent != 0 {
						if p := s.Lookup(rc.parent); p != nil {
							p.RemoveChild(k)
						}
						if rp := ref.caps[rc.parent]; rp != nil {
							for j, ch := range rp.children {
								if ch == k {
									rp.children = append(rp.children[:j], rp.children[j+1:]...)
									break
								}
							}
						}
					}
					// Orphan the children (their parent link dangles, which
					// the store tolerates: remote parents look the same).
					s.Remove(k)
					ref.remove(k)
					keys = append(keys[:i], keys[i+1:]...)
				}
			}
			if s.Len() != len(ref.caps) {
				return false
			}
			for k, rc := range ref.caps {
				c := s.Lookup(k)
				if c == nil || c.Owner != rc.owner || c.Sel != rc.sel {
					return false
				}
				if s.LookupSel(rc.owner, rc.sel) != c {
					return false
				}
				got := c.AppendChildren(nil)
				if len(got) != len(rc.children) {
					return false
				}
				for i := range got {
					if got[i] != rc.children[i] {
						return false
					}
				}
			}
			for vpe := 0; vpe < 4; vpe++ {
				want := ref.vpeCaps(vpe)
				got := s.VPECaps(vpe)
				if len(got) != len(want) {
					return false
				}
				for i := range want {
					if got[i].Key != want[i].key || got[i].Sel != want[i].sel {
						return false
					}
				}
			}
			return s.CheckLocalInvariants() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("reuse=%v: %v", reuse, err)
		}
	}
}

// Selector reuse after free is opt-in and must hand back freed selectors.
func TestSelectorReuse(t *testing.T) {
	s := NewStore()
	s.ReuseSelectors = true
	g := ddl.NewGenerator()
	a := s.Insert(memCap(g, 1, s.AllocSel(1)))
	b := s.Insert(memCap(g, 1, s.AllocSel(1)))
	if a.Sel != 1 || b.Sel != 2 {
		t.Fatalf("sels = %d, %d", a.Sel, b.Sel)
	}
	s.Remove(a.Key)
	if sel := s.AllocSel(1); sel != 1 {
		t.Fatalf("freed selector not reused: got %d", sel)
	}
	c := memCap(g, 1, 1)
	c = s.Insert(c)
	if s.LookupSel(1, 1) != c {
		t.Fatal("reused selector does not resolve")
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}
