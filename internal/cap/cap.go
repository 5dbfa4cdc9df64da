// Package cap provides the kernel-local capability structures of SemperOS:
// typed capabilities and the per-kernel mapping database that tracks
// capability exchanges in a tree (paper §3.4, §4.3).
//
// A capability references a kernel object (the resource), the VPE holding
// the access rights, and — through globally valid DDL keys — its parent and
// children in the system-wide capability tree. Parent/child links may cross
// kernels; this package only stores and manipulates the local part, while
// package core runs the distributed protocols on top.
//
// Storage layout (beyond-paper scale work): capabilities live in
// generation-versioned slabs owned by the Store — fixed-size arrays of
// Capability values addressed by a dense slot number — instead of being
// individually heap-allocated and map-indexed. The key index is an
// open-addressing hash over the uint64 DDL key (ddl.KeyMap), per-VPE
// selector spaces are dense slices, and child links are stored inline in
// the Capability with spill to a shared chunk arena. At millions of
// capabilities this removes the per-capability allocations and the three
// layers of Go map overhead that previously dominated RSS and GC time.
package cap

import (
	"fmt"

	"repro/internal/ddl"
	"repro/internal/dtu"
)

// Debug enables expensive correctness asserts that are not part of the
// protocol logic, e.g. AddChild's O(children) duplicate scan. Tests turn it
// on; the benchmarks and the scale sweep leave it off.
var Debug = false

// Selector names a capability within one VPE's capability space, like a file
// descriptor names an open file.
type Selector uint32

// NoSel is the invalid selector.
const NoSel Selector = 0

// Object is the kernel object a capability grants access to. Implementations
// are the *Object types below.
type Object interface {
	// ObjType returns the DDL type tag for this object.
	ObjType() ddl.Type
}

// VPEObject represents control over a VPE.
type VPEObject struct {
	VPE int // global VPE id
	PE  int // PE the VPE runs on
}

// MemObject represents byte-granular access to a memory region.
type MemObject struct {
	PE   int // PE whose local memory backs the region
	Off  uint64
	Size uint64
	Perm dtu.Perm
}

// SendObject represents the right to send messages to a receive endpoint.
type SendObject struct {
	DstPE   int
	DstEP   int
	Credits int
	Label   uint64
}

// RecvObject represents a receive endpoint.
type RecvObject struct {
	PE    int
	EP    int
	Slots int
}

// ServiceObject represents a registered service.
type ServiceObject struct {
	Name string
	PE   int // PE the service VPE runs on
	VPE  int
}

// SessionObject represents an established session between a client and a
// service.
type SessionObject struct {
	Service string
	Ident   uint64 // service-private session identifier
}

// ObjType implementations.
func (*VPEObject) ObjType() ddl.Type     { return ddl.TypeVPE }
func (*MemObject) ObjType() ddl.Type     { return ddl.TypeMem }
func (*SendObject) ObjType() ddl.Type    { return ddl.TypeSend }
func (*RecvObject) ObjType() ddl.Type    { return ddl.TypeRecv }
func (*ServiceObject) ObjType() ddl.Type { return ddl.TypeService }
func (*SessionObject) ObjType() ddl.Type { return ddl.TypeSession }

// Child-link storage parameters. Most capabilities have at most a handful of
// children (a derive chain, a session), so the first few keys live inline in
// the Capability; wide fan-outs (a service capability with thousands of
// sessions) spill to chunks of a shared arena owned by the Store.
const (
	inlineChildren = 3
	chunkKeys      = 7
)

// childChunk is one spill block of the shared child arena. The next field is
// the arena index of the following chunk plus one (0 = end of chain), so the
// zero chunk is a valid empty chunk.
type childChunk struct {
	keys [chunkKeys]ddl.Key
	next int32
}

// Capability is one node of the capability tree.
//
// A Capability is created free-standing (a composite literal) and handed to
// Store.Insert, which copies it into a slab and returns the slab pointer —
// the live instance all further reads and mutations must go through. A
// free-standing capability holds at most inlineChildren children: the spill
// chunks belong to a Store.
//
// Fields are ordered 8-byte words, 4-byte words, bytes, so the struct packs
// into 104 B (TestCapabilitySize).
type Capability struct {
	// Key is the capability's globally valid DDL key.
	Key ddl.Key
	// Owner is the global id of the VPE holding the rights.
	Owner int
	// Object is the referenced kernel object. Child capabilities share the
	// object of their parent (possibly with restricted permissions).
	Object Object
	// Parent is the DDL key of the parent capability (0 for roots).
	Parent ddl.Key

	// Child links, in creation order. nChildren counts live children;
	// childSlots is the append cursor including tombstones (removed children
	// leave a zero key so the creation order of the survivors is preserved).
	// Slots [0, inlineChildren) are inline; further slots live in arena
	// chunks (spillHead/spillTail, chunk index+1, 0 = none).
	inline [inlineChildren]ddl.Key

	// store and slot locate the capability inside its Store's slabs; both
	// are zero while free-standing.
	store *Store
	slot  uint32

	// Sel is the capability's selector in the owner's capability space.
	Sel Selector

	nChildren  int32
	childSlots int32
	spillHead  int32
	spillTail  int32

	// gen is the slot's generation, bumped by Remove; it belongs to the slab
	// slot, not to the capability, and survives Insert's copy (Handle).
	gen uint32
	// Perm restricts the rights of this capability relative to the object.
	Perm dtu.Perm
	// Marked is set during phase one of the two-phase revocation
	// (mark-and-sweep, paper §4.3.3). A marked capability is logically dead:
	// exchanges involving it are denied.
	Marked bool
}

// Type returns the capability's object type.
func (c *Capability) Type() ddl.Type {
	if c.Object == nil {
		return ddl.TypeInvalid
	}
	return c.Object.ObjType()
}

func (c *Capability) String() string {
	return fmt.Sprintf("cap<%v owner=v%d sel=%d kids=%d marked=%v>",
		c.Key, c.Owner, c.Sel, c.NumChildren(), c.Marked)
}

// NumChildren returns the number of live child links.
func (c *Capability) NumChildren() int { return int(c.nChildren) }

// forEachChildSlot visits every child slot (including tombstones, which are
// zero keys) in creation order until fn returns false.
func (c *Capability) forEachChildSlot(fn func(k ddl.Key) bool) {
	n := int(c.childSlots)
	for i := 0; i < n && i < inlineChildren; i++ {
		if !fn(c.inline[i]) {
			return
		}
	}
	spillN := n - inlineChildren
	if spillN <= 0 {
		return
	}
	ci := c.spillHead
	for i := 0; i < spillN; i++ {
		off := i % chunkKeys
		if !fn(c.store.chunks[ci-1].keys[off]) {
			return
		}
		if off == chunkKeys-1 {
			ci = c.store.chunks[ci-1].next
		}
	}
}

// ForEachChild calls fn for every live child key in creation order. The
// capability's child set must not be mutated during the walk.
func (c *Capability) ForEachChild(fn func(k ddl.Key)) {
	c.forEachChildSlot(func(k ddl.Key) bool {
		if k != 0 {
			fn(k)
		}
		return true
	})
}

// AppendChildren appends the live child keys in creation order to dst and
// returns the result — the snapshot form of ForEachChild, for walks that
// mutate the tree. A dst that is too small at least doubles, so a caller that
// keeps pushing snapshots onto one slice (the revocation mark walk's stack)
// pays amortized, not quadratic, copying.
func (c *Capability) AppendChildren(dst []ddl.Key) []ddl.Key {
	if need := len(dst) + int(c.nChildren); need > cap(dst) {
		grown := make([]ddl.Key, len(dst), max(need, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	c.ForEachChild(func(k ddl.Key) { dst = append(dst, k) })
	return dst
}

// AddChild appends a child key. Duplicate insertion is a protocol bug; the
// O(children) scan that asserts it only runs with Debug set — wide fan-outs
// must not pay it per link. A free-standing capability past inlineChildren
// panics: the kernels link children only to stored capabilities.
func (c *Capability) AddChild(k ddl.Key) {
	if Debug && c.HasChild(k) {
		panic(fmt.Sprintf("cap: duplicate child %v on %v", k, c.Key))
	}
	slot := int(c.childSlots)
	if slot >= inlineChildren && c.store == nil {
		panic(fmt.Sprintf("cap: free-standing %v holds at most %d children", c.Key, inlineChildren))
	}
	c.childSlots++
	c.nChildren++
	if slot < inlineChildren {
		c.inline[slot] = k
		return
	}
	off := (slot - inlineChildren) % chunkKeys
	if off == 0 {
		ci := c.store.allocChunk()
		if c.spillTail != 0 {
			c.store.chunks[c.spillTail-1].next = ci + 1
		} else {
			c.spillHead = ci + 1
		}
		c.spillTail = ci + 1
	}
	c.store.chunks[c.spillTail-1].keys[off] = k
}

// RemoveChild deletes a child key; removing an absent child is a no-op
// (revocation may race with orphan cleanup). The slot is tombstoned so the
// surviving children keep their creation order; when the last child goes,
// the whole spill chain is released.
func (c *Capability) RemoveChild(k ddl.Key) {
	if k == 0 {
		return
	}
	n := int(c.childSlots)
	for i := 0; i < n && i < inlineChildren; i++ {
		if c.inline[i] == k {
			c.inline[i] = 0
			c.childRemoved()
			return
		}
	}
	spillN := n - inlineChildren
	if spillN <= 0 {
		return
	}
	ci := c.spillHead
	for i := 0; i < spillN; i++ {
		off := i % chunkKeys
		if c.store.chunks[ci-1].keys[off] == k {
			c.store.chunks[ci-1].keys[off] = 0
			c.childRemoved()
			return
		}
		if off == chunkKeys-1 {
			ci = c.store.chunks[ci-1].next
		}
	}
}

func (c *Capability) childRemoved() {
	c.nChildren--
	if c.nChildren == 0 {
		c.resetChildren()
	}
}

// resetChildren releases all child storage (the tombstone-compaction point:
// a capability whose children are all gone starts over empty).
func (c *Capability) resetChildren() {
	c.inline = [inlineChildren]ddl.Key{}
	if c.store != nil {
		c.store.freeChunkChain(c.spillHead)
	}
	c.spillHead, c.spillTail = 0, 0
	c.childSlots = 0
	c.nChildren = 0
}

// HasChild reports whether k is a child of c.
func (c *Capability) HasChild(k ddl.Key) bool {
	if k == 0 {
		return false
	}
	found := false
	c.forEachChildSlot(func(ch ddl.Key) bool {
		if ch == k {
			found = true
			return false
		}
		return true
	})
	return found
}

// Slab geometry: 64 capabilities per slab, so a kernel holding a handful of
// capabilities (most kernels of a sweep, every kernel at boot) pays for one
// small slab, not 512 slots. Slabs are allocated as whole arrays and never
// move, so *Capability pointers into them stay valid until the slot is
// freed by Remove.
const (
	slabShift = 6
	slabSize  = 1 << slabShift
)

type slab [slabSize]Capability

// Handle is a dense, generation-versioned reference to a stored capability:
// the slot's generation counter in the upper 32 bits, the slot number plus
// one in the lower 32 (so the zero Handle is invalid). A Handle outlives the
// *Capability pointer safely — once the slot is freed and reused, Resolve
// returns nil instead of the impostor.
type Handle uint64

// NoHandle is the invalid handle.
const NoHandle Handle = 0

// vpeSpace is one VPE's capability space: a dense selector-indexed table of
// slab slot references (slot+1, 0 = empty) plus the allocation cursor.
type vpeSpace struct {
	sel  []uint32
	free []Selector // freed selectors, reused only with Store.ReuseSelectors
	next Selector   // highest selector handed out
	live int
}

// ensure extends the selector table to cover sel. Selectors are handed out
// monotonically, so this is almost always one append; appending zeros one at
// a time builds no temporary slice (append(s, make(...)...) does whenever
// the compiler does not fuse the two, as under the race detector).
func (sp *vpeSpace) ensure(sel Selector) {
	for int(sel) >= len(sp.sel) {
		sp.sel = append(sp.sel, 0)
	}
}

// Store is one kernel's mapping database: all capabilities it owns, indexed
// by DDL key and by (VPE, selector). Capabilities live in slabs owned by the
// Store; see the package comment for the layout.
type Store struct {
	// ReuseSelectors makes AllocSel reuse selectors freed by Remove instead
	// of allocating monotonically. The kernels leave it off: monotonic
	// selectors keep (vpe, selector) pairs unique for the lifetime of a run,
	// which the exchange protocols' re-validation checks rely on, and keep
	// bulk revocation order (VPECaps) independent of deletion history.
	ReuseSelectors bool

	slabs     []*slab
	freeSlots []uint32 // LIFO free list
	used      uint32   // high-water slot count
	n         int      // live capabilities

	byKey ddl.KeyMap[uint32] // DDL key -> slot

	vpes map[int]*vpeSpace // one entry per VPE, not per capability

	chunks     []childChunk // shared child-spill arena
	freeChunks []int32
}

// NewStore returns an empty mapping database.
func NewStore() *Store {
	return &Store{}
}

// Len returns the number of stored capabilities.
func (s *Store) Len() int { return s.n }

func (s *Store) capAt(slot uint32) *Capability {
	return &s.slabs[slot>>slabShift][slot&(slabSize-1)]
}

func (s *Store) allocSlot() uint32 {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	slot := s.used
	if int(slot>>slabShift) == len(s.slabs) {
		s.slabs = append(s.slabs, new(slab))
	}
	s.used++
	return slot
}

func (s *Store) allocChunk() int32 {
	if n := len(s.freeChunks); n > 0 {
		ci := s.freeChunks[n-1]
		s.freeChunks = s.freeChunks[:n-1]
		return ci
	}
	s.chunks = append(s.chunks, childChunk{})
	return int32(len(s.chunks) - 1)
}

// freeChunkChain returns a chunk chain (head is index+1) to the free list.
func (s *Store) freeChunkChain(head int32) {
	for head != 0 {
		ci := head - 1
		next := s.chunks[ci].next
		s.chunks[ci] = childChunk{}
		s.freeChunks = append(s.freeChunks, ci)
		head = next
	}
}

func (s *Store) space(vpe int) *vpeSpace {
	sp := s.vpes[vpe]
	if sp == nil {
		if s.vpes == nil {
			s.vpes = make(map[int]*vpeSpace)
		}
		sp = &vpeSpace{}
		s.vpes[vpe] = sp
	}
	return sp
}

// AllocSel returns a fresh selector for the VPE's capability space:
// monotonically increasing, or a recycled one with ReuseSelectors set.
func (s *Store) AllocSel(vpe int) Selector {
	sp := s.space(vpe)
	if s.ReuseSelectors {
		if n := len(sp.free); n > 0 {
			sel := sp.free[n-1]
			sp.free = sp.free[:n-1]
			return sel
		}
	}
	sp.next++
	return sp.next
}

// Insert copies the capability into a slab slot, indexes it, and returns the
// slab instance — the pointer all further accesses must use; the argument
// stays a dead free-standing value. Inserting a duplicate key or a
// (vpe, selector) collision panics: keys are minted uniquely and selectors
// allocated by AllocSel, so either indicates kernel corruption.
func (s *Store) Insert(c *Capability) *Capability {
	if !c.Key.Valid() {
		panic("cap: inserting capability with invalid key")
	}
	if _, dup := s.byKey.Get(c.Key); dup {
		panic(fmt.Sprintf("cap: duplicate key %v", c.Key))
	}
	var sp *vpeSpace
	if c.Sel != NoSel {
		sp = s.space(c.Owner)
		sp.ensure(c.Sel)
		if sp.sel[c.Sel] != 0 {
			panic(fmt.Sprintf("cap: duplicate selector %d for vpe %d", c.Sel, c.Owner))
		}
	}
	slot := s.allocSlot()
	sc := s.capAt(slot)
	gen := sc.gen
	*sc = *c
	sc.store, sc.slot, sc.gen = s, slot, gen
	s.byKey.Put(c.Key, slot)
	if sp != nil {
		sp.sel[c.Sel] = slot + 1
		sp.live++
		if c.Sel > sp.next {
			// Directly chosen selector (tests): keep AllocSel ahead of it.
			sp.next = c.Sel
		}
	}
	s.n++
	return sc
}

// Lookup returns the capability with the given key, or nil.
func (s *Store) Lookup(k ddl.Key) *Capability {
	slot, ok := s.byKey.Get(k)
	if !ok {
		return nil
	}
	return s.capAt(slot)
}

// LookupSel returns the VPE's capability at sel, or nil.
func (s *Store) LookupSel(vpe int, sel Selector) *Capability {
	sp := s.vpes[vpe]
	if sp == nil || int(sel) >= len(sp.sel) {
		return nil
	}
	ref := sp.sel[sel]
	if ref == 0 {
		return nil
	}
	return s.capAt(ref - 1)
}

// HandleOf returns the generation-versioned handle of a stored capability,
// or NoHandle for nil or free-standing capabilities.
func (s *Store) HandleOf(c *Capability) Handle {
	if c == nil || c.store != s {
		return NoHandle
	}
	return Handle(uint64(c.gen)<<32 | uint64(c.slot) + 1)
}

// Resolve returns the capability a handle refers to, or nil if it has been
// removed since (the slot's generation moved on).
func (s *Store) Resolve(h Handle) *Capability {
	if h == NoHandle {
		return nil
	}
	slot := uint32(h) - 1
	if slot >= s.used {
		return nil
	}
	c := s.capAt(slot)
	if c.gen != uint32(h>>32) || c.Key == 0 {
		return nil
	}
	return c
}

// Remove deletes a capability from the database. It does not touch tree
// links; callers unlink first. Removing an absent key is a no-op. The slab
// slot is zeroed except for its generation, which is bumped (so the GC drops
// the object reference and stale handles stop resolving), and slot and spill
// chunks return to the free lists.
func (s *Store) Remove(k ddl.Key) {
	slot, ok := s.byKey.Get(k)
	if !ok {
		return
	}
	c := s.capAt(slot)
	if c.spillHead != 0 {
		s.freeChunkChain(c.spillHead)
	}
	if c.Sel != NoSel {
		if sp := s.vpes[c.Owner]; sp != nil && int(c.Sel) < len(sp.sel) && sp.sel[c.Sel] == slot+1 {
			sp.sel[c.Sel] = 0
			sp.live--
			if s.ReuseSelectors {
				sp.free = append(sp.free, c.Sel)
			}
		}
	}
	s.byKey.Delete(k)
	*c = Capability{gen: c.gen + 1}
	s.freeSlots = append(s.freeSlots, slot)
	s.n--
}

// VPECaps returns all capabilities of a VPE ordered by ascending selector —
// the selector table's natural order, no sort needed. The order is
// deterministic so that bulk revocation (VPE exit) is reproducible: with
// monotonic selectors it equals creation order regardless of deletion
// history.
func (s *Store) VPECaps(vpe int) []*Capability {
	sp := s.vpes[vpe]
	if sp == nil || sp.live == 0 {
		return nil
	}
	caps := make([]*Capability, 0, sp.live)
	for _, ref := range sp.sel {
		if ref != 0 {
			caps = append(caps, s.capAt(ref-1))
		}
	}
	return caps
}

// Keys returns all stored keys in slot order (for tests/diagnostics) — the
// slab table's natural order, no sort or map iteration. The order is a
// deterministic function of the store's operation history (slots allocate
// densely, frees recycle LIFO), but not of the key values; callers that
// need a value order must sort.
func (s *Store) Keys() []ddl.Key {
	keys := make([]ddl.Key, 0, s.n)
	for slot := uint32(0); slot < s.used; slot++ {
		if c := s.capAt(slot); c.Key != 0 {
			keys = append(keys, c.Key)
		}
	}
	return keys
}

// CheckLocalInvariants validates the locally checkable invariants:
//   - every child link whose target is local resolves, and the target's
//     Parent points back;
//   - every local capability with a local parent is in that parent's child
//     list;
//   - selector index, key index and slab agree;
//   - slab free lists are consistent: every slot is either live and indexed
//     or zeroed but for its generation and on the free list, exactly once;
//   - child spill chains are well-formed: acyclic, owned by exactly one
//     capability, sized to the child-slot count, and disjoint from the
//     chunk free list.
//
// It returns the first violation found, or nil. Links to other kernels
// cannot be validated locally and are skipped.
func (s *Store) CheckLocalInvariants() error {
	if len(s.freeSlots)+s.n != int(s.used) {
		return fmt.Errorf("slot accounting: %d free + %d live != %d used",
			len(s.freeSlots), s.n, s.used)
	}
	freeSlot := make(map[uint32]bool, len(s.freeSlots))
	for _, slot := range s.freeSlots {
		if slot >= s.used {
			return fmt.Errorf("free slot %d beyond high water %d", slot, s.used)
		}
		if freeSlot[slot] {
			return fmt.Errorf("slot %d on the free list twice", slot)
		}
		freeSlot[slot] = true
	}
	freeChunk := make(map[int32]bool, len(s.freeChunks))
	for _, ci := range s.freeChunks {
		if ci < 0 || int(ci) >= len(s.chunks) {
			return fmt.Errorf("free chunk %d out of range", ci)
		}
		if freeChunk[ci] {
			return fmt.Errorf("chunk %d on the free list twice", ci)
		}
		if s.chunks[ci] != (childChunk{}) {
			return fmt.Errorf("free chunk %d not zeroed", ci)
		}
		freeChunk[ci] = true
	}
	chunkOwner := make(map[int32]uint32)
	ownedChunks := 0
	for slot := uint32(0); slot < s.used; slot++ {
		c := s.capAt(slot)
		if c.Key == 0 {
			if !freeSlot[slot] {
				return fmt.Errorf("slot %d is empty but not on the free list", slot)
			}
			if *c != (Capability{gen: c.gen}) {
				return fmt.Errorf("free slot %d not zeroed", slot)
			}
			continue
		}
		if freeSlot[slot] {
			return fmt.Errorf("slot %d holds %v but is on the free list", slot, c.Key)
		}
		if c.store != s || c.slot != slot {
			return fmt.Errorf("cap %v has wrong slab back-reference", c.Key)
		}
		if got, ok := s.byKey.Get(c.Key); !ok || got != slot {
			return fmt.Errorf("cap %v missing from the key index", c.Key)
		}
		// Child links and spill-chain shape.
		spillSlots := int(c.childSlots) - inlineChildren
		wantChunks := 0
		if spillSlots > 0 {
			wantChunks = (spillSlots + chunkKeys - 1) / chunkKeys
		}
		ci := c.spillHead
		for i := 0; i < wantChunks; i++ {
			if ci == 0 {
				return fmt.Errorf("cap %v spill chain too short: %d chunks, want %d", c.Key, i, wantChunks)
			}
			idx := ci - 1
			if int(idx) >= len(s.chunks) {
				return fmt.Errorf("cap %v spill chunk %d out of range", c.Key, idx)
			}
			if freeChunk[idx] {
				return fmt.Errorf("cap %v references free chunk %d", c.Key, idx)
			}
			if owner, shared := chunkOwner[idx]; shared {
				return fmt.Errorf("chunk %d shared by slots %d and %d", idx, owner, slot)
			}
			chunkOwner[idx] = slot
			ownedChunks++
			if i == wantChunks-1 {
				if ci != c.spillTail {
					return fmt.Errorf("cap %v spill tail mismatch", c.Key)
				}
				if s.chunks[idx].next != 0 {
					return fmt.Errorf("cap %v spill chain overlong", c.Key)
				}
			}
			ci = s.chunks[idx].next
		}
		if wantChunks == 0 && (c.spillHead != 0 || c.spillTail != 0) {
			return fmt.Errorf("cap %v has a spill chain but no spill slots", c.Key)
		}
		liveChildren := 0
		var childErr error
		c.forEachChildSlot(func(ch ddl.Key) bool {
			if ch == 0 {
				return true
			}
			liveChildren++
			if child := s.Lookup(ch); child != nil && child.Parent != c.Key {
				childErr = fmt.Errorf("child %v of %v has parent %v", ch, c.Key, child.Parent)
				return false
			}
			return true
		})
		if childErr != nil {
			return childErr
		}
		if liveChildren != int(c.nChildren) {
			return fmt.Errorf("cap %v counts %d children, slots hold %d", c.Key, c.nChildren, liveChildren)
		}
		if c.Parent != 0 {
			if parent := s.Lookup(c.Parent); parent != nil && !parent.HasChild(c.Key) {
				return fmt.Errorf("cap %v not in parent %v child list", c.Key, c.Parent)
			}
		}
		if c.Sel != NoSel {
			if s.LookupSel(c.Owner, c.Sel) != c {
				return fmt.Errorf("cap %v selector index mismatch", c.Key)
			}
		}
	}
	if ownedChunks+len(s.freeChunks) != len(s.chunks) {
		return fmt.Errorf("chunk accounting: %d owned + %d free != %d allocated",
			ownedChunks, len(s.freeChunks), len(s.chunks))
	}
	if s.byKey.Len() != s.n {
		return fmt.Errorf("key index holds %d entries, store %d", s.byKey.Len(), s.n)
	}
	for vpe, sp := range s.vpes {
		live := 0
		for sel, ref := range sp.sel {
			if ref == 0 {
				continue
			}
			live++
			if ref-1 >= s.used {
				return fmt.Errorf("selector index for vpe %d sel %d points beyond the slabs", vpe, sel)
			}
			c := s.capAt(ref - 1)
			if c.Key == 0 || c.Owner != vpe || c.Sel != Selector(sel) {
				return fmt.Errorf("selector index corrupt for vpe %d sel %d", vpe, sel)
			}
		}
		if live != sp.live {
			return fmt.Errorf("vpe %d selector space counts %d live, table holds %d", vpe, sp.live, live)
		}
	}
	return nil
}
