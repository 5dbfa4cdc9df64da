package cap

import (
	"fmt"
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
	s := NewStore()
	g := ddl.NewGenerator()
	parent := s.Insert(memCap(g, 1, 1))
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
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateChildPanics(t *testing.T) {
	defer func(old bool) { Debug = old }(Debug)
	Debug = true // the duplicate scan is a debug-gated assert
	s := NewStore()
	g := ddl.NewGenerator()
	parent := s.Insert(memCap(g, 1, 1))
	child := memCap(g, 2, 1)
	parent.AddChild(child.Key)
	defer func() {
		if recover() == nil {
			t.Error("duplicate child did not panic")
		}
	}()
	parent.AddChild(child.Key)
}

// Children of a stored capability keep creation order across several chunks
// and under interleaved removals, and the chain goes back to the arena when
// the last child does.
func TestChildChain(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	parent := s.Insert(memCap(g, 1, 1))
	var want []ddl.Key
	for i := 0; i < 4*chunkKeys+2; i++ {
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
	// Removing the rest releases the whole chain.
	for _, k := range still {
		parent.RemoveChild(k)
	}
	if parent.NumChildren() != 0 {
		t.Fatalf("%d children left", parent.NumChildren())
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(s.freeChunks) != int(s.nChunks) {
		t.Fatalf("%d of %d chunks still owned", int(s.nChunks)-len(s.freeChunks), s.nChunks)
	}
}

// A free-standing capability has no arena to hold child links: its first
// child is a protocol bug.
func TestFreeStandingChildLimit(t *testing.T) {
	g := ddl.NewGenerator()
	c := memCap(g, 1, 1)
	defer func() {
		if recover() == nil {
			t.Error("linking a child to a free-standing capability did not panic")
		}
	}()
	c.AddChild(g.Next(0, 2, ddl.TypeMem))
}

// Insert refuses a copy of a stored capability that has children: the copy
// would share the original's chunk chain. The store is left as it was.
func TestInsertRefusesChildLinks(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	parent := s.Insert(memCap(g, 1, s.AllocSel(1)))
	parent.AddChild(g.Next(0, 2, ddl.TypeMem))
	dup := *parent
	dup.Key, dup.Sel = g.Next(0, 1, ddl.TypeMem), s.AllocSel(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("inserting a capability with child links did not panic")
			}
		}()
		s.Insert(&dup)
	}()
	if s.Len() != 1 || s.Lookup(dup.Key) != nil {
		t.Fatalf("refused insert changed the store: %d capabilities", s.Len())
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A freed slot keeps nothing: the invariant check rejects one that still
// holds an object or a store back-reference.
func TestFreeSlotKeepsNothing(t *testing.T) {
	s := NewStore()
	g := ddl.NewGenerator()
	keep := s.Insert(memCap(g, 1, s.AllocSel(1)))
	c := s.Insert(memCap(g, 1, s.AllocSel(1)))
	s.Remove(c.Key)
	if *c != (Capability{}) {
		t.Fatalf("Remove left %+v in the freed slot", *c)
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatalf("zeroed free slot rejected: %v", err)
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

	// A parent whose list fills several chunks lists every claimant but one,
	// which sits in a slot after all the listed ones.
	wide := s.Insert(memCap(g, 1, 2))
	for i := 0; i < 2*chunkKeys+1; i++ {
		c := memCap(g, 3, Selector(i+1))
		c.Parent = wide.Key
		wide.AddChild(s.Insert(c).Key)
	}
	missing := memCap(g, 3, 100)
	missing.Parent = wide.Key
	s.Insert(missing)
	want := fmt.Sprintf("cap %v not in parent %v child list", missing.Key, wide.Key)
	if err := s.CheckLocalInvariants(); err == nil || err.Error() != want {
		t.Fatalf("audit = %v, want %q", err, want)
	}
	wide.AddChild(missing.Key)
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}

	// A selector space whose pages are out of order, off their page
	// boundary, miscounted or empty, or do not sum to its live count.
	for _, tc := range []struct {
		corrupt func(sp *vpeSpace)
		want    string
	}{
		{func(sp *vpeSpace) { sp.pages[1].base = 0 }, "vpe 1 pages out of order: base 0 after 0"},
		{func(sp *vpeSpace) { sp.pages[1].base = 17 }, "vpe 1 page base 17 is not a multiple of 16"},
		{func(sp *vpeSpace) { sp.pages[0].live++ }, "vpe 1 page 0 counts 3 live, holds 2"},
		{func(sp *vpeSpace) { sp.pages = append(sp.pages, selPage{base: 32}) }, "vpe 1 page 32 counts 0 live, holds 0"},
		{func(sp *vpeSpace) { sp.live-- }, "vpe 1 selector space counts 2 live, pages hold 3"},
	} {
		// Selectors 1, 2 and 17: pages 0 and 16.
		s := NewStore()
		g := ddl.NewGenerator()
		for _, sel := range []Selector{1, 2, 17} {
			s.Insert(memCap(g, 1, sel))
		}
		if err := s.CheckLocalInvariants(); err != nil {
			t.Fatalf("intact store: %v", err)
		}
		tc.corrupt(s.spaceFor(1))
		if err := s.CheckLocalInvariants(); err == nil || err.Error() != tc.want {
			t.Errorf("audit = %v, want %q", err, tc.want)
		}
	}
}

// A VPE's capability space follows what it holds: after a thousand rounds
// that mint twenty capabilities and remove them again, the space of the one
// survivor is its single page, looked up and listed as before, and a warm
// round allocates nothing.
func TestSelectorSpaceFollowsLiveCaps(t *testing.T) {
	const vpe, rounds, perRound = 1, 1000, 20
	s := NewStore()
	obj := &MemObject{PE: 1, Size: 4096, Perm: dtu.PermRW}
	keep := s.Insert(&Capability{Key: benchKey(vpe, 0), Owner: vpe, Sel: s.AllocSel(vpe), Object: obj})
	var keys [perRound]ddl.Key
	minted := 0
	round := func() {
		for i := range keys {
			minted++
			keys[i] = benchKey(vpe, minted)
			s.Insert(&Capability{Key: keys[i], Owner: vpe, Sel: s.AllocSel(vpe), Object: obj, Perm: dtu.PermR})
		}
		for _, k := range keys {
			s.Remove(k)
		}
	}
	for i := 0; i < rounds; i++ {
		round()
	}
	sp := s.spaceFor(vpe)
	if len(sp.pages) != 1 || cap(sp.pages) > 4 {
		t.Fatalf("space holds %d pages in room for %d after %d selectors", len(sp.pages), cap(sp.pages), sp.next)
	}
	if err := s.CheckLocalInvariants(); err != nil {
		t.Fatal(err)
	}
	for sel := Selector(1); sel <= sp.next+1; sel++ {
		want := keep
		if sel != keep.Sel {
			want = nil
		}
		if got := s.LookupSel(vpe, sel); got != want {
			t.Fatalf("LookupSel(%d) = %v, want %v", sel, got, want)
		}
	}
	if caps := s.VPECaps(vpe); len(caps) != 1 || caps[0] != keep {
		t.Fatalf("VPECaps = %v, want the survivor alone", caps)
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("a warm round allocates %.1f times", allocs)
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
// removes, the slab store agrees with the map-based reference model and its
// local invariants hold.
func TestStoreRandomOpsProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
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
		t.Fatal(err)
	}
}

// TestAuditFindsSpillCorruption: the audit names one chunk in two child
// chains, a chain that runs through a free chunk, and a chunk listed free
// twice.
func TestAuditFindsSpillCorruption(t *testing.T) {
	// Two capabilities, in slots 0 and 1, whose child lists fill one chunk
	// each.
	build := func() (s *Store, a, b *Capability) {
		s = NewStore()
		g := ddl.NewGenerator()
		var caps [2]*Capability
		for i := range caps {
			caps[i] = s.Insert(memCap(g, 1, s.AllocSel(1)))
			for j := 0; j < chunkKeys; j++ {
				caps[i].AddChild(g.Next(1, 2, ddl.TypeMem))
			}
		}
		return s, caps[0], caps[1]
	}
	for _, tc := range []struct {
		name    string
		corrupt func(s *Store, a, b *Capability) string
	}{
		{"shared", func(s *Store, a, b *Capability) string {
			b.spillHead = a.spillHead
			return fmt.Sprintf("chunk %d shared by slots 0 and 1", a.spillHead-1)
		}},
		{"references free", func(s *Store, a, b *Capability) string {
			idx := b.spillHead - 1
			*s.chunk(idx) = childChunk{}
			s.freeChunks = append(s.freeChunks, idx)
			return fmt.Sprintf("cap %v references free chunk %d", b.Key, idx)
		}},
		{"free twice", func(s *Store, a, b *Capability) string {
			idx := b.spillHead - 1
			b.resetChildren()
			s.freeChunks = append(s.freeChunks, idx)
			return fmt.Sprintf("chunk %d on the free list twice", idx)
		}},
	} {
		s, a, b := build()
		if err := s.CheckLocalInvariants(); err != nil {
			t.Fatalf("%s: intact store: %v", tc.name, err)
		}
		want := tc.corrupt(s, a, b)
		if err := s.CheckLocalInvariants(); err == nil || err.Error() != want {
			t.Errorf("%s: audit = %v, want %q", tc.name, err, want)
		}
	}
}

// fuzzParents is how many stored parents FuzzChildList drives.
const fuzzParents = 3

// FuzzChildList plays random child adds and removes on a few stored parents
// against a model of each parent's child slots: keys in creation order, a
// zero key for each removed child (a tombstone), the tombstones dropped once
// they outnumber the live children plus a chunk, and the whole list, chunks
// included, freed when its last child goes; no list keeps more tombstones.
// Two bytes make one step: the first picks the parent and the operation —
// link a child held by another kernel, link a stored child, remove the child
// the second byte picks (possibly a tombstone, which is a no-op), or remove
// the parent itself and store a fresh one in its place. The store's audit
// runs after every step.
func FuzzChildList(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 0, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 0, 2, 3, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 2, 0, 2, 1, 2, 2, 2, 3, 0, 0, 1, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 6, 2, 6, 0, 6, 1, 6, 3, 7, 0})
	// Ten children, seven removed: the seventh removal compacts the list.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0,
		2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 0, 0, 1, 0, 2, 7, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		s := NewStore()
		g := ddl.NewGenerator()
		var parents [fuzzParents]*Capability
		var model [fuzzParents][]ddl.Key
		for i := range parents {
			parents[i] = s.Insert(memCap(g, 1, s.AllocSel(1)))
		}
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step], int(data[step+1])
			p := int(op>>2) % fuzzParents
			parent := parents[p]
			switch op & 3 {
			case 0: // a child another kernel holds
				k := g.Next(0, 2, ddl.TypeMem)
				parent.AddChild(k)
				model[p] = append(model[p], k)
			case 1: // a stored child
				c := memCap(g, 2, s.AllocSel(2))
				c.Parent = parent.Key
				parent.AddChild(c.Key)
				s.Insert(c)
				model[p] = append(model[p], c.Key)
			case 2: // remove a child, and the capability if stored here
				if len(model[p]) == 0 {
					parent.RemoveChild(g.Next(0, 2, ddl.TypeMem)) // absent: a no-op
					break
				}
				i := arg % len(model[p])
				k := model[p][i]
				parent.RemoveChild(k)
				s.Remove(k)
				model[p][i] = 0
				var live []ddl.Key
				for _, ch := range model[p] {
					if ch != 0 {
						live = append(live, ch)
					}
				}
				if dead := len(model[p]) - len(live); len(live) == 0 || dead > len(live)+chunkKeys {
					model[p] = live
				}
			case 3: // remove the parent; its stored children become orphans
				s.Remove(parent.Key)
				parents[p] = s.Insert(memCap(g, 1, s.AllocSel(1)))
				model[p] = nil
			}
			if err := s.CheckLocalInvariants(); err != nil {
				t.Fatalf("step %d: %v", step/2, err)
			}
			owned := 0
			for i, c := range parents {
				var want []ddl.Key
				for _, k := range model[i] {
					if k != 0 {
						want = append(want, k)
					}
				}
				if dead := len(model[i]) - len(want); dead > len(want)+chunkKeys {
					t.Fatalf("step %d: parent %d keeps %d tombstones for %d children", step/2, i, dead, len(want))
				}
				got := c.AppendChildren(nil)
				if len(got) != len(want) || c.NumChildren() != len(want) || c.childSlots() != len(model[i]) {
					t.Fatalf("step %d: parent %d holds %v in %d slots, want %v in %d",
						step/2, i, got, c.childSlots(), want, len(model[i]))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("step %d: parent %d child %d = %v, want %v", step/2, i, j, got[j], want[j])
					}
				}
				owned += (len(model[i]) + chunkKeys - 1) / chunkKeys
			}
			if held := int(s.nChunks) - len(s.freeChunks); held != owned {
				t.Fatalf("step %d: %d chunks held, the model's lists fill %d", step/2, held, owned)
			}
		}
	})
}

// fuzzVPEs is how many VPEs FuzzSelectorSpace drives.
const fuzzVPEs = 3

// FuzzSelectorSpace plays random mints and removes over a few VPEs against a
// model of each VPE's live selectors. Two bytes make one step: the first
// picks the VPE and the operation — mint at the next selector, mint at a
// selector the second byte chooses (skipped if it was ever used), or remove
// the live capability the second byte picks. After every step the audit
// runs, every selector ever handed out looks up what the model holds,
// VPECaps lists the model in selector order, and each space holds exactly
// the pages of its live selectors.
func FuzzSelectorSpace(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 8, 0, 2, 0, 3, 40, 3, 5, 2, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 2, 0, 3, 2, 2, 1})
	f.Add([]byte{3, 200, 3, 100, 3, 20, 3, 1, 2, 1, 7, 9, 6, 0, 11, 3, 10, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		s := NewStore()
		g := ddl.NewGenerator()
		var live, used [fuzzVPEs]map[Selector]ddl.Key
		for v := range live {
			live[v], used[v] = make(map[Selector]ddl.Key), make(map[Selector]ddl.Key)
		}
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step], int(data[step+1])
			v := int(op>>2) % fuzzVPEs
			switch op & 3 {
			case 0, 1: // mint at the next selector
				c := s.Insert(memCap(g, v, s.AllocSel(v)))
				live[v][c.Sel], used[v][c.Sel] = c.Key, c.Key
			case 3: // mint at a chosen selector, possibly below live pages
				sel := Selector(3*arg + 1)
				if _, ok := used[v][sel]; ok {
					break
				}
				c := s.Insert(memCap(g, v, sel))
				live[v][sel], used[v][sel] = c.Key, c.Key
			case 2: // remove a live capability
				if len(live[v]) == 0 {
					break
				}
				sels := make([]Selector, 0, len(live[v]))
				for sel := range live[v] {
					sels = append(sels, sel)
				}
				sort.Slice(sels, func(i, j int) bool { return sels[i] < sels[j] })
				sel := sels[arg%len(sels)]
				s.Remove(live[v][sel])
				delete(live[v], sel)
			}
			if err := s.CheckLocalInvariants(); err != nil {
				t.Fatalf("step %d: %v", step/2, err)
			}
			for v := range live {
				for sel, k := range used[v] {
					c := s.LookupSel(v, sel)
					if _, ok := live[v][sel]; ok != (c != nil) || ok && c.Key != k {
						t.Fatalf("step %d: vpe %d sel %d looks up %v, live %v", step/2, v, sel, c, ok)
					}
				}
				caps := s.VPECaps(v)
				bases := make(map[Selector]bool)
				for sel := range live[v] {
					bases[sel&^(pageSels-1)] = true
				}
				if len(caps) != len(live[v]) {
					t.Fatalf("step %d: vpe %d lists %d capabilities, model %d", step/2, v, len(caps), len(live[v]))
				}
				for i, c := range caps {
					if live[v][c.Sel] != c.Key || i > 0 && caps[i-1].Sel >= c.Sel {
						t.Fatalf("step %d: vpe %d VPECaps %v not the model in selector order", step/2, v, caps)
					}
				}
				if sp := s.spaceFor(v); sp != nil && len(sp.pages) != len(bases) {
					t.Fatalf("step %d: vpe %d holds %d pages for %d live pages", step/2, v, len(sp.pages), len(bases))
				}
			}
		}
	})
}

// spaceFor is vpe's space, nil if it has none.
func (s *Store) spaceFor(vpe int) *vpeSpace {
	sp, _ := s.spaceOf(vpe)
	return sp
}

// TestLaidOutStoresStayApart: stores laid out together share each kind of
// storage, one run each; filling every one far past its run (space index,
// slabs, key index) keeps each store's tables its own.
func TestLaidOutStoresStayApart(t *testing.T) {
	stores := NewStores(3, 2, 8)
	obj := &MemObject{Size: 4096, Perm: dtu.PermRW}
	for round := 0; round < 2; round++ {
		for i := range stores {
			s := &stores[i]
			var root *Capability
			for j := 0; j < 300; j++ {
				v := j % 7
				c := &Capability{Key: ddl.NewKey(i+1, v+1, ddl.TypeMem, uint64(round*1000+j)+1), Owner: v, Sel: s.AllocSel(v), Object: obj, Perm: dtu.PermR}
				if j%50 == 0 {
					root = s.Insert(c)
					continue
				}
				c.Parent = root.Key
				root.AddChild(s.Insert(c).Key)
			}
		}
		for i := range stores {
			s := &stores[i]
			if err := s.CheckLocalInvariants(); err != nil {
				t.Fatalf("round %d, store %d: %v", round, i, err)
			}
			if s.Len() != 300 {
				t.Fatalf("round %d, store %d holds %d capabilities, want 300", round, i, s.Len())
			}
			for _, k := range s.Keys() {
				if k.PE() != i+1 {
					t.Fatalf("round %d, store %d holds %v, another store's key", round, i, k)
				}
			}
		}
		for i := range stores { // empty them again, so round 2 reuses the free lists
			s := &stores[i]
			for _, k := range s.Keys() {
				if c := s.Lookup(k); c.Parent != 0 {
					s.Lookup(c.Parent).RemoveChild(k)
					s.Remove(k)
				}
			}
			for _, k := range s.Keys() {
				s.Remove(k)
			}
			if err := s.CheckLocalInvariants(); err != nil || s.Len() != 0 {
				t.Fatalf("round %d, store %d emptied: %d left, %v", round, i, s.Len(), err)
			}
		}
	}
}
