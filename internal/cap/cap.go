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
// Storage layout (beyond-paper scale work): capabilities live in slabs owned
// by the Store — fixed-size arrays of Capability values addressed by a dense
// slot number — instead of being individually heap-allocated and
// map-indexed. The key index is an open-addressing hash over the uint64 DDL
// key whose entries hold only slot references (keyIndex), selector spaces
// keep only pages with live selectors, and child links live only in chunks
// of a Store-owned arena, so the slab slot of a leaf — nearly every
// capability — carries no child storage.
// At millions of capabilities this removes the per-capability allocations
// and the three layers of Go map overhead that previously dominated RSS and
// GC time.
package cap

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
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
//
// An object is immutable once constructed: no field is assigned after its
// composite literal. Kernels therefore share objects by reference — a child
// capability, an obtained or delegated capability on another kernel, and an
// activation that captures the object across a NoC round trip all hold the
// same pointer, where the paper's kernels copy a fixed-format value. That is
// also what lets package core carve memory objects out of shared blocks
// with no recycling: a slot is never written twice.
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

// Child-link storage parameters. Child keys live in chunks of a shared arena
// owned by the Store, chained per parent. Nearly every capability is a leaf,
// and most parents hold a handful of children (a derive chain, a session),
// so a chunk is small: 3 keys and two links make 32 B. A wide fan-out (a service
// capability with thousands of sessions) chains many chunks. The arena's
// first chunkBlock chunks are a slice that starts with room for firstChunks
// and doubles; later ones come in blocks of chunkBlock, so a large arena
// leaves less than a block unused (DESIGN.md "Child links").
const (
	chunkKeys   = 3
	firstChunks = 32
	chunkBlock  = 1024
)

// childChunk is one block of the shared child arena. The next field is the
// arena index of the following chunk plus one (0 = end of chain), and last,
// on a chain's first chunk only, that of the chain's last chunk; so the zero
// chunk is a valid empty chunk.
type childChunk struct {
	keys [chunkKeys]ddl.Key
	next int32
	last int32
}

// Capability is one node of the capability tree.
//
// A Capability is created free-standing (a composite literal) and handed to
// Store.Insert, which copies it into a slab and returns the slab pointer —
// the live instance all further reads and mutations must go through. A
// free-standing capability holds no children: the chunks belong to a Store.
//
// Fields are ordered 8-byte words, 4-byte words, bytes, so the struct packs
// into 64 B (TestCapabilitySize; see the slab geometry below).
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

	// store is the Store holding the capability (nil while free-standing),
	// whose arena holds its child chunks.
	store *Store

	// Sel is the capability's selector in the owner's capability space.
	Sel Selector

	// Child links, in creation order. nChildren counts live children and
	// dead the tombstones among them (a removed child leaves a zero key so
	// the survivors keep their creation order), so nChildren+dead slots are
	// in use. Slot i lives at offset i%chunkKeys of the (i/chunkKeys)-th
	// chunk of the chain starting at spillHead (chunk index+1, 0 = none),
	// whose first chunk records its last.
	nChildren int32
	spillHead int32
	dead      uint16

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

// childSlots is the number of child slots in use, tombstones included.
func (c *Capability) childSlots() int { return int(c.nChildren) + int(c.dead) }

// forEachChildSlot visits every child slot (including tombstones, which are
// zero keys) in creation order until fn returns false. fn may overwrite the
// slot it is given.
func (c *Capability) forEachChildSlot(fn func(k *ddl.Key) bool) {
	ci := c.spillHead
	for i := 0; i < c.childSlots(); i++ {
		ch := c.store.chunk(ci - 1)
		off := i % chunkKeys
		if !fn(&ch.keys[off]) {
			return
		}
		if off == chunkKeys-1 {
			ci = ch.next
		}
	}
}

// ForEachChild calls fn for every live child key in creation order. The
// capability's child set must not be mutated during the walk.
func (c *Capability) ForEachChild(fn func(k ddl.Key)) {
	c.forEachChildSlot(func(k *ddl.Key) bool {
		if *k != 0 {
			fn(*k)
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
// must not pay it per link. A free-standing capability panics: the kernels
// link children only to stored capabilities.
func (c *Capability) AddChild(k ddl.Key) {
	if Debug && c.HasChild(k) {
		panic(fmt.Sprintf("cap: duplicate child %v on %v", k, c.Key))
	}
	s := c.store
	if s == nil {
		panic(fmt.Sprintf("cap: free-standing %v holds no children", c.Key))
	}
	var last int32
	if c.spillHead != 0 {
		last = s.chunk(c.spillHead - 1).last
	}
	off := c.childSlots() % chunkKeys
	if off == 0 {
		ci := s.allocChunk() + 1
		if last != 0 {
			s.chunk(last - 1).next = ci
		} else {
			c.spillHead = ci
		}
		last = ci
		s.chunk(c.spillHead - 1).last = ci
	}
	s.chunk(last - 1).keys[off] = k
	c.nChildren++
}

// RemoveChild deletes a child key; removing an absent child is a no-op
// (revocation may race with orphan cleanup). The slot is tombstoned so the
// surviving children keep their creation order, until tombstones outnumber
// the live children plus a chunk or fill their 16-bit count; the last
// child's removal frees the chain.
func (c *Capability) RemoveChild(k ddl.Key) {
	if k == 0 {
		return
	}
	removed := false
	c.forEachChildSlot(func(ch *ddl.Key) bool {
		if *ch == k {
			*ch, removed = 0, true
			return false
		}
		return true
	})
	if !removed {
		return
	}
	c.nChildren--
	c.dead++
	if c.nChildren == 0 {
		c.resetChildren()
	} else if int(c.dead) > int(c.nChildren)+chunkKeys || c.dead == math.MaxUint16 {
		c.compactChildren()
	}
}

// compactChildren moves the live children to the front of the chain, in
// creation order, and frees the chunks left holding only tombstones.
func (c *Capability) compactChildren() {
	s := c.store
	dst, tail, n := c.spillHead, c.spillHead, int32(0)
	c.forEachChildSlot(func(k *ddl.Key) bool {
		if key := *k; key != 0 {
			*k, tail = 0, dst
			s.chunk(dst - 1).keys[n%chunkKeys] = key
			if n++; n%chunkKeys == 0 {
				dst = s.chunk(dst - 1).next
			}
		}
		return true
	})
	s.freeChunkChain(s.chunk(tail - 1).next)
	s.chunk(tail - 1).next = 0
	s.chunk(c.spillHead - 1).last = tail
	c.dead = 0
}

// resetChildren releases all child storage: a capability whose children are
// all gone starts over empty.
func (c *Capability) resetChildren() {
	c.store.freeChunkChain(c.spillHead)
	c.spillHead = 0
	c.nChildren, c.dead = 0, 0
}

// HasChild reports whether k is a child of c.
func (c *Capability) HasChild(k ddl.Key) bool {
	if k == 0 {
		return false
	}
	found := false
	c.forEachChildSlot(func(ch *ddl.Key) bool {
		if *ch == k {
			found = true
			return false
		}
		return true
	})
	return found
}

// Slab geometry: 63 capabilities per slab, so a kernel holding a handful of
// capabilities (most kernels of a sweep, every kernel at boot) pays for one
// small slab, not 512 slots. A slab holds pointers, so the allocator puts an
// 8 B header in front of it: 63 slots of 64 B and the header make 4040 B,
// served from the 4096 B size class (65 B per slot), where 64 slots would
// need 4104 B and the 4864 B class (76 B per slot). Slabs are allocated as
// whole arrays and never move, so *Capability pointers into them stay valid
// until the slot is freed by Remove.
const slabSize = 63

type slab [slabSize]Capability

// slotIn is the capability at a slot.
func slotIn(slabs []*slab, slot uint32) *Capability {
	return &slabs[slot/slabSize][slot%slabSize]
}

// vpeSpace is VPE vpe's capability space: the pages holding its live
// selectors, sorted by base (a page goes with its last capability), and the
// allocation cursor. The first page lives in the record itself (first).
type vpeSpace struct {
	pages []selPage
	next  Selector // highest selector handed out
	vpe   int32
	live  int
	first [1]selPage
}

// selPage holds the slab slot references (slot+1, 0 = empty) of selectors
// base … base+pageSels-1; live counts the non-zero ones.
type selPage struct {
	base Selector
	live int32
	refs [pageSels]uint32
}

// pageSels is how many selectors a page covers; spaceBlock is how many
// spaces one allocation serves. A Store does not know how many VPEs it will
// hold (a kernel's group, at most a few dozen), so its blocks are small and
// fixed; a block of pages is 1 152 B, a size class of its own.
const (
	pageSels   = 16
	spaceBlock = 4
	pageBlock  = 16
)

// find returns the index of the page holding sel, or where it would go. The
// last page (inserts) and the first (revocation) are tried before the search.
func (sp *vpeSpace) find(sel Selector) (int, bool) {
	base := sel &^ (pageSels - 1)
	lo, hi := 0, len(sp.pages)
	if hi > 0 && sp.pages[hi-1].base <= base {
		lo = hi - 1
	} else if hi > 0 && sp.pages[0].base >= base {
		hi = 0
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); sp.pages[m].base < base {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(sp.pages) && sp.pages[lo].base == base
}

// Store is one kernel's mapping database: all capabilities it owns, indexed
// by DDL key and by (VPE, selector). Capabilities live in slabs owned by the
// Store; see the package comment for the layout.
type Store struct {
	slabs     []*slab
	freeSlots []uint32 // LIFO free list
	used      uint32   // high-water slot count
	n         int      // live capabilities

	byKey keyIndex // DDL key -> slot

	spaces    []*vpeSpace // one per VPE, by ascending VPE id
	spaceRecs sim.Blocks[vpeSpace]
	// pageRuns and spareRuns hold spaces' runs of pages (growPages).
	pageRuns  sim.Blocks[selPage]
	spareRuns [3][]selPage

	// The shared child arena: nChunks chunks, in chunks and chunkBlocks.
	chunks      []childChunk
	chunkBlocks []*[chunkBlock]childChunk
	nChunks     int32
	freeChunks  []int32
}

// NewStore returns an empty mapping database.
func NewStore() *Store {
	return &Store{}
}

// NewStores returns n empty stores laid out at boot for vpes capability
// spaces and caps capabilities each (DESIGN.md "Boot-time layout"): the
// index of their spaces, a first slab and the key index are one allocation
// each for all n, and a store grows past its share.
func NewStores(n, vpes, caps int) []Store {
	stores, slabs := make([]Store, n), make([]slab, n)
	var index sim.Blocks[*vpeSpace]
	var slabRefs sim.Blocks[*slab]
	var refs sim.Blocks[uint32]
	keys, nSlabs := ddl.TableLen(caps), caps/slabSize+1
	for i := range stores {
		s := &stores[i]
		s.spaces = index.Take(vpes, n*vpes)[:0]
		s.slabs = append(slabRefs.Take(nSlabs, n*nSlabs)[:0], &slabs[i])
		s.byKey.refs = refs.Take(keys, n*keys)
	}
	return stores
}

// Len returns the number of stored capabilities.
func (s *Store) Len() int { return s.n }

func (s *Store) capAt(slot uint32) *Capability {
	return slotIn(s.slabs, slot)
}

func (s *Store) allocSlot() uint32 {
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot
	}
	slot := s.used
	if slot == maxSlots {
		panic(fmt.Sprintf("cap: store full at %d capability slots, the key index's limit", maxSlots))
	}
	if int(slot/slabSize) == len(s.slabs) {
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
	ci := s.nChunks
	switch {
	case ci < chunkBlock:
		if int(ci) == cap(s.chunks) { // full: double it, up to a block
			s.chunks = append(make([]childChunk, 0, max(firstChunks, 2*ci)), s.chunks...)
		}
		s.chunks = s.chunks[:ci+1]
	case ci%chunkBlock == 0:
		s.chunkBlocks = append(s.chunkBlocks, new([chunkBlock]childChunk))
	}
	s.nChunks++
	return ci
}

// chunk is the arena's chunk ci.
func (s *Store) chunk(ci int32) *childChunk {
	if ci < chunkBlock {
		return &s.chunks[ci]
	}
	return &s.chunkBlocks[ci/chunkBlock-1][ci%chunkBlock]
}

// freeChunkChain returns a chunk chain (head is index+1) to the free list.
func (s *Store) freeChunkChain(head int32) {
	for head != 0 {
		ci := head - 1
		ch := s.chunk(ci)
		next := ch.next
		*ch = childChunk{}
		s.freeChunks = append(s.freeChunks, ci)
		head = next
	}
}

// spaceOf returns vpe's space, nil if it has none, and its place in spaces.
func (s *Store) spaceOf(vpe int) (*vpeSpace, int) {
	i, ok := slices.BinarySearchFunc(s.spaces, vpe, func(sp *vpeSpace, vpe int) int { return cmp.Compare(int(sp.vpe), vpe) })
	if !ok {
		return nil, i
	}
	return s.spaces[i], i
}

func (s *Store) space(vpe int) *vpeSpace {
	sp, i := s.spaceOf(vpe)
	if sp == nil {
		sp = s.spaceRecs.New(spaceBlock)
		sp.pages, sp.vpe = sp.first[:0], int32(vpe)
		s.spaces = slices.Insert(s.spaces, i, sp)
	}
	return sp
}

// AllocSel returns a fresh selector for the VPE's capability space.
// Selectors increase monotonically and are never reused: a (vpe, selector)
// pair names one capability for the lifetime of a run, which the exchange
// protocols' re-validation after a round trip relies on (a recycled slab slot
// can hold a newcomer at the same address), and bulk revocation order
// (VPECaps) does not depend on deletion history.
func (s *Store) AllocSel(vpe int) Selector {
	sp := s.space(vpe)
	sp.next++
	return sp.next
}

// Insert copies the capability into a slab slot, indexes it, and returns the
// slab instance — the pointer all further accesses must use; the argument
// stays a dead free-standing value. Inserting a duplicate key or a
// (vpe, selector) collision panics: keys are minted uniquely and selectors
// allocated by AllocSel, so either indicates kernel corruption. So does a
// capability carrying child links — a copy of a stored value, which would
// share its chunk chain with the original.
func (s *Store) Insert(c *Capability) *Capability {
	if !c.Key.Valid() {
		panic("cap: inserting capability with invalid key")
	}
	if c.nChildren != 0 || c.dead != 0 || c.spillHead != 0 {
		panic(fmt.Sprintf("cap: inserting %v with child links", c.Key))
	}
	pos, h, dup := s.byKey.reserve(s.slabs, c.Key)
	if dup != nil {
		panic(fmt.Sprintf("cap: duplicate key %v", c.Key))
	}
	var sp *vpeSpace
	pi, found := 0, false
	if c.Sel != NoSel {
		sp = s.space(c.Owner)
		if pi, found = sp.find(c.Sel); found && sp.pages[pi].refs[c.Sel%pageSels] != 0 {
			panic(fmt.Sprintf("cap: duplicate selector %d for vpe %d", c.Sel, c.Owner))
		}
	}
	slot := s.allocSlot()
	sc := s.capAt(slot)
	*sc = *c
	sc.store = s
	s.byKey.fill(pos, h, slot)
	if sp != nil {
		if !found { // selectors grow, so nearly always at the end
			if len(sp.pages) == cap(sp.pages) {
				s.growPages(sp)
			}
			sp.pages = slices.Insert(sp.pages, pi, selPage{base: c.Sel &^ (pageSels - 1)})
		}
		p := &sp.pages[pi]
		p.refs[c.Sel%pageSels] = slot + 1
		p.live++
		sp.live++
		if c.Sel > sp.next {
			// Directly chosen selector (tests): keep AllocSel ahead of it.
			sp.next = c.Sel
		}
	}
	s.n++
	return sc
}

// growPages doubles sp's room for pages: into the run of that size a space
// left, else one cut from a block, keeping the run sp leaves for the next;
// from pageBlock pages on into the heap, and the store lets its runs go.
func (s *Store) growPages(sp *vpeSpace) {
	old, n := sp.pages, 2*cap(sp.pages)
	i := bits.Len(uint(n)) - 2 // spareRuns[i] holds a run of n pages
	switch {
	case n >= pageBlock:
		sp.pages = append(old, selPage{})[:len(old)]
	case s.spareRuns[i] != nil:
		sp.pages, s.spareRuns[i] = append(s.spareRuns[i][:0], old...), nil
	default:
		sp.pages = append(s.pageRuns.Take(n, pageBlock)[:0], old...)
	}
	if n == pageBlock {
		s.pageRuns, s.spareRuns = sim.Blocks[selPage]{}, [3][]selPage{}
	} else if n > 2 && n < pageBlock {
		s.spareRuns[i-1] = old
	}
}

// Lookup returns the capability with the given key, or nil.
func (s *Store) Lookup(k ddl.Key) *Capability {
	_, c := s.byKey.find(s.slabs, k)
	return c
}

// LookupSel returns the VPE's capability at sel, or nil.
func (s *Store) LookupSel(vpe int, sel Selector) *Capability {
	if sp, _ := s.spaceOf(vpe); sp != nil {
		if pi, ok := sp.find(sel); ok && sp.pages[pi].refs[sel%pageSels] != 0 {
			return s.capAt(sp.pages[pi].refs[sel%pageSels] - 1)
		}
	}
	return nil
}

// Remove deletes a capability from the database. It does not touch tree
// links; callers unlink first. Removing an absent key is a no-op. The slab
// slot is zeroed (so the GC drops the object reference), and slot and child
// chunks return to the free lists.
func (s *Store) Remove(k ddl.Key) {
	slot, c := s.byKey.remove(s.slabs, k)
	if c == nil {
		return
	}
	s.freeChunkChain(c.spillHead)
	if c.Sel != NoSel {
		sp, _ := s.spaceOf(c.Owner)
		if pi, ok := sp.find(c.Sel); ok && sp.pages[pi].refs[c.Sel%pageSels] == slot+1 {
			sp.pages[pi].refs[c.Sel%pageSels] = 0
			sp.live--
			if sp.pages[pi].live--; sp.pages[pi].live == 0 {
				sp.pages = slices.Delete(sp.pages, pi, pi+1)
			}
		}
	}
	*c = Capability{}
	s.freeSlots = append(s.freeSlots, slot)
	s.n--
}

// VPECaps returns all capabilities of a VPE ordered by ascending selector —
// the pages' natural order, no sort needed. The order is
// deterministic so that bulk revocation (VPE exit) is reproducible: with
// monotonic selectors it equals creation order regardless of deletion
// history.
func (s *Store) VPECaps(vpe int) []*Capability {
	sp, _ := s.spaceOf(vpe)
	if sp == nil || sp.live == 0 {
		return nil
	}
	caps := make([]*Capability, 0, sp.live)
	for pi := range sp.pages {
		for _, ref := range sp.pages[pi].refs {
			if ref != 0 {
				caps = append(caps, s.capAt(ref-1))
			}
		}
	}
	return caps
}

// ForEach calls fn for every stored capability in slot order — the slab
// table's natural order, no sort or map iteration. The order is a
// deterministic function of the store's operation history (slots allocate
// densely, frees recycle LIFO), but not of the key values; callers that need
// a value order must sort. fn must not insert or remove capabilities.
func (s *Store) ForEach(fn func(c *Capability)) {
	for slot := uint32(0); slot < s.used; slot++ {
		if c := s.capAt(slot); c.Key != 0 {
			fn(c)
		}
	}
}

// Keys returns all stored keys in ForEach order: the snapshot form, for walks
// that mutate the store.
func (s *Store) Keys() []ddl.Key {
	keys := make([]ddl.Key, 0, s.n)
	s.ForEach(func(c *Capability) { keys = append(keys, c.Key) })
	return keys
}

// CheckLocalInvariants validates the locally checkable invariants:
//   - every child link whose target is in this store has the target's
//     Parent pointing back;
//   - every local capability with a local parent is in that parent's child
//     list;
//   - selector index, key index and slab agree; spaces ascend by VPE, and
//     page bases ascend strictly in multiples of pageSels, each page
//     counting its live selectors (> 0);
//   - slab free lists are consistent: every slot is either live and indexed
//     or zeroed and on the free list, exactly once;
//   - child chunk chains are well-formed: acyclic, owned by exactly one
//     capability, sized to the child-slot count with the last chunk
//     recorded on the first and no key after the last slot, and disjoint
//     from the chunk free list.
//
// It returns the first violation found, or nil. A link whose target is not
// in this store is skipped: the store cannot tell a key another kernel
// holds from a lost key of its own (core's CheckLeaks resolves every link
// at its owner).
func (s *Store) CheckLocalInvariants() error {
	if len(s.freeSlots)+s.n != int(s.used) {
		return fmt.Errorf("slot accounting: %d free + %d live != %d used",
			len(s.freeSlots), s.n, s.used)
	}
	for si, sp := range s.spaces {
		vpe, live := int(sp.vpe), 0
		if si > 0 && sp.vpe <= s.spaces[si-1].vpe {
			return fmt.Errorf("selector spaces out of order: vpe %d after %d", vpe, s.spaces[si-1].vpe)
		}
		for pi, p := range sp.pages {
			if p.base%pageSels != 0 {
				return fmt.Errorf("vpe %d page base %d is not a multiple of %d", vpe, p.base, pageSels)
			}
			if pi > 0 && p.base <= sp.pages[pi-1].base {
				return fmt.Errorf("vpe %d pages out of order: base %d after %d", vpe, p.base, sp.pages[pi-1].base)
			}
			held := int32(0)
			for i, ref := range p.refs {
				if ref == 0 {
					continue
				}
				held++
				sel := p.base + Selector(i)
				if ref > s.used || s.capAt(ref-1).Key == 0 ||
					s.capAt(ref-1).Owner != vpe || s.capAt(ref-1).Sel != sel {
					return fmt.Errorf("selector index corrupt for vpe %d sel %d", vpe, sel)
				}
			}
			if held == 0 || held != p.live {
				return fmt.Errorf("vpe %d page %d counts %d live, holds %d", vpe, p.base, p.live, held)
			}
			live += int(held)
		}
		if live != sp.live {
			return fmt.Errorf("vpe %d selector space counts %d live, pages hold %d", vpe, sp.live, live)
		}
	}
	// One word per slot: on the free list, listed by its local parent (marked
	// in the parent's child walk, so the audit is linear in the links); then
	// one per chunk: 1 + the slot whose chain holds it, or chunkFree.
	// A small table's words stay on the stack.
	const slotFree, slotListed, chunkFree = 1, 2, ^uint32(0)
	var buf [512]uint32
	words := buf[:]
	if n := int(s.used) + int(s.nChunks); n > len(buf) {
		words = make([]uint32, n)
	}
	state, chunkOwner := words[:s.used], words[s.used:int(s.used)+int(s.nChunks)]
	for _, slot := range s.freeSlots {
		if slot >= s.used {
			return fmt.Errorf("free slot %d beyond high water %d", slot, s.used)
		}
		if state[slot]&slotFree != 0 {
			return fmt.Errorf("slot %d on the free list twice", slot)
		}
		state[slot] |= slotFree
	}
	for _, ci := range s.freeChunks {
		if ci < 0 || ci >= s.nChunks {
			return fmt.Errorf("free chunk %d out of range", ci)
		}
		if chunkOwner[ci] == chunkFree {
			return fmt.Errorf("chunk %d on the free list twice", ci)
		}
		if *s.chunk(ci) != (childChunk{}) {
			return fmt.Errorf("free chunk %d not zeroed", ci)
		}
		chunkOwner[ci] = chunkFree
	}
	ownedChunks := 0
	for slot := uint32(0); slot < s.used; slot++ {
		c := s.capAt(slot)
		if c.Key == 0 {
			if state[slot]&slotFree == 0 {
				return fmt.Errorf("slot %d is empty but not on the free list", slot)
			}
			if *c != (Capability{}) {
				return fmt.Errorf("free slot %d not zeroed", slot)
			}
			continue
		}
		if state[slot]&slotFree != 0 {
			return fmt.Errorf("slot %d holds %v but is on the free list", slot, c.Key)
		}
		if c.store != s {
			return fmt.Errorf("cap %v has wrong slab back-reference", c.Key)
		}
		if _, got := s.byKey.find(s.slabs, c.Key); got != c {
			return fmt.Errorf("cap %v missing from the key index", c.Key)
		}
		// Child links and chain shape.
		wantChunks := (c.childSlots() + chunkKeys - 1) / chunkKeys
		ci := c.spillHead
		for i := 0; i < wantChunks; i++ {
			if ci == 0 {
				return fmt.Errorf("cap %v spill chain too short: %d chunks, want %d", c.Key, i, wantChunks)
			}
			idx := ci - 1
			if idx < 0 || idx >= s.nChunks {
				return fmt.Errorf("cap %v spill chunk %d out of range", c.Key, idx)
			}
			switch owner := chunkOwner[idx]; {
			case owner == chunkFree:
				return fmt.Errorf("cap %v references free chunk %d", c.Key, idx)
			case owner != 0:
				return fmt.Errorf("chunk %d shared by slots %d and %d", idx, owner-1, slot)
			}
			chunkOwner[idx] = slot + 1
			ownedChunks++
			if i > 0 && s.chunk(idx).last != 0 {
				return fmt.Errorf("cap %v spill chunk %d records a chain end", c.Key, idx)
			}
			if i == wantChunks-1 {
				if ci != s.chunk(c.spillHead-1).last {
					return fmt.Errorf("cap %v spill tail mismatch", c.Key)
				}
				if s.chunk(idx).next != 0 {
					return fmt.Errorf("cap %v spill chain overlong", c.Key)
				}
				for _, k := range s.chunk(idx).keys[c.childSlots()-i*chunkKeys:] {
					if k != 0 {
						return fmt.Errorf("cap %v keeps child %v past its last slot", c.Key, k)
					}
				}
			}
			ci = s.chunk(idx).next
		}
		if wantChunks == 0 && c.spillHead != 0 {
			return fmt.Errorf("cap %v has a spill chain but no spill slots", c.Key)
		}
		liveChildren := 0
		var childErr error
		c.forEachChildSlot(func(ch *ddl.Key) bool {
			if *ch == 0 {
				return true
			}
			liveChildren++
			if cs, child := s.byKey.find(s.slabs, *ch); child != nil {
				if child.Parent != c.Key {
					childErr = fmt.Errorf("child %v of %v has parent %v", *ch, c.Key, child.Parent)
					return false
				}
				state[cs] |= slotListed
			}
			return true
		})
		if childErr != nil {
			return childErr
		}
		if liveChildren != int(c.nChildren) {
			return fmt.Errorf("cap %v counts %d children, slots hold %d", c.Key, c.nChildren, liveChildren)
		}
		if c.Sel != NoSel {
			if s.LookupSel(c.Owner, c.Sel) != c {
				return fmt.Errorf("cap %v selector index mismatch", c.Key)
			}
		}
	}
	// Every walk is done: a capability its local parent does not list is unmarked.
	for slot := uint32(0); slot < s.used; slot++ {
		if c := s.capAt(slot); c.Parent != 0 && state[slot]&slotListed == 0 && s.Lookup(c.Parent) != nil {
			return fmt.Errorf("cap %v not in parent %v child list", c.Key, c.Parent)
		}
	}
	if ownedChunks+len(s.freeChunks) != int(s.nChunks) {
		return fmt.Errorf("chunk accounting: %d owned + %d free != %d allocated",
			ownedChunks, len(s.freeChunks), s.nChunks)
	}
	if s.byKey.n != s.n {
		return fmt.Errorf("key index holds %d entries, store %d", s.byKey.n, s.n)
	}
	return nil
}
