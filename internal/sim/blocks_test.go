package sim

import (
	"runtime"
	"testing"
	"time"
	"unsafe"
)

type blockRec struct {
	a, b int
	p    *int
}

// TestBlocksHandsOutDistinctZeroedRecords: every record is zeroed and
// distinct from every other, and a block of n serves exactly n records
// before the next allocation, whose size is the block the caller asks for
// then (at least one), not the first one's.
func TestBlocksHandsOutDistinctZeroedRecords(t *testing.T) {
	var b Blocks[blockRec]
	seen := make(map[*blockRec]bool)
	for _, block := range []int{3, 5, 0, -2, 1, 4} {
		want := max(block, 1)
		for i := 0; i < want; i++ {
			r := b.New(block)
			if *r != (blockRec{}) {
				t.Fatalf("block %d, record %d is not zeroed: %+v", block, i, *r)
			}
			if seen[r] {
				t.Fatalf("block %d, record %d handed out twice", block, i)
			}
			seen[r] = true
			r.a, r.b, r.p = 1, 2, new(int) // dirty it: later records stay zero
			if left := len(b.spare); left != want-1-i {
				t.Fatalf("block %d: %d records left after the %d-th, want %d", block, left, i+1, want-1-i)
			}
		}
	}
}

// TestBlocksAllocateOncePerBlock pins the point of the helper: 64 records
// from blocks of 16 take four allocations, with or without the race
// detector.
func TestBlocksAllocateOncePerBlock(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		var b Blocks[blockRec]
		for i := 0; i < 64; i++ {
			b.New(16)
		}
	})
	if allocs != 4 {
		t.Fatalf("64 records from blocks of 16 allocate %v times, want 4", allocs)
	}
}

// TestBlocksDieWithTheirRecords: once no record of a used-up block is
// referenced, the block is collected while the Blocks itself lives on,
// without a further New or Take to move it off the block — whether its last
// record went out alone or at the end of a run.
func TestBlocksDieWithTheirRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		take func(*Blocks[[64]byte]) *[64]byte
	}{
		{"record", func(b *Blocks[[64]byte]) *[64]byte { return b.New(1) }},
		{"run", func(b *Blocks[[64]byte]) *[64]byte {
			first := &b.Take(2, 5)[0]
			b.Take(3, 5)
			return first
		}},
	} {
		b := new(Blocks[[64]byte])
		collected := make(chan struct{})
		runtime.SetFinalizer(c.take(b), func(*[64]byte) { close(collected) })
		deadline := time.After(10 * time.Second)
		for done := false; !done; {
			runtime.GC()
			select {
			case <-collected:
				done = true
			case <-time.After(10 * time.Millisecond):
			case <-deadline:
				t.Fatalf("%s: a used-up block nobody references is still reachable", c.name)
			}
		}
		runtime.KeepAlive(b)
	}
}

// next returns the address of the record after run in its block.
func after(run []blockRec) *blockRec {
	return (*blockRec)(unsafe.Add(unsafe.Pointer(&run[0]), uintptr(len(run))*unsafe.Sizeof(run[0])))
}

// TestBlocksTakeZeroedCappedRuns: a run is n zeroed records capped at n, so
// appending to it copies it out instead of writing into the run after it;
// runs of one block follow each other, and New takes from the same block.
func TestBlocksTakeZeroedCappedRuns(t *testing.T) {
	var b Blocks[blockRec]
	first := b.Take(3, 8)
	if len(first) != 3 || cap(first) != 3 {
		t.Fatalf("Take(3, 8) has length %d, capacity %d, want 3 and 3", len(first), cap(first))
	}
	for i := range first {
		if first[i] != (blockRec{}) {
			t.Fatalf("record %d of a run is not zeroed: %+v", i, first[i])
		}
		first[i].a = 1
	}
	second := b.Take(2, 8)
	if &second[0] != after(first) {
		t.Fatal("the next run does not follow the first in its block")
	}
	if grown := append(first, blockRec{a: 7}); &grown[0] == &first[0] || second[0] != (blockRec{}) {
		t.Fatal("appending to a run wrote into the next one")
	}
	if r := b.New(8); r != after(second) || *r != (blockRec{}) {
		t.Fatal("New does not take the record after the last run")
	}
	if left := len(b.spare); left != 2 {
		t.Fatalf("%d records left in the block of 8, want 2", left)
	}
}

// TestBlocksNeverHandOutShortRest: a run longer than what is left of the
// current block comes from a new block of max(n, block) records, and the
// short rest is dropped: no later Take or New hands it out.
func TestBlocksNeverHandOutShortRest(t *testing.T) {
	var b Blocks[blockRec]
	rest := after(b.Take(3, 4))
	long := b.Take(6, 4)
	if len(long) != 6 || cap(long) != 6 || len(b.spare) != 0 {
		t.Fatalf("Take(6, 4) after a run of 3 of 4: length %d, capacity %d, %d left; want 6, 6 and 0",
			len(long), cap(long), len(b.spare))
	}
	b.Take(2, 5)
	if left := len(b.spare); left != 3 {
		t.Fatalf("Take(2, 5) with nothing left makes a block of %d, want 5", 2+left)
	}
	for i := 0; i < 8; i++ {
		if b.New(4) == rest {
			t.Fatal("the short rest of a block was handed out")
		}
	}
}

// TestBlocksUseComesFirst: records of storage given to Use are handed out,
// by New and Take alike, before any block is made.
func TestBlocksUseComesFirst(t *testing.T) {
	var b Blocks[blockRec]
	b.Take(1, 8) // a current block, which Use replaces
	var own [4]blockRec
	b.Use(own[:])
	if r := b.New(8); r != &own[0] {
		t.Fatal("New did not hand out the first record given to Use")
	}
	if run := b.Take(3, 8); &run[0] != &own[1] || cap(run) != 3 {
		t.Fatal("Take did not hand out the rest given to Use as one capped run")
	}
	if b.spare != nil {
		t.Fatal("storage given to Use still held once handed out")
	}
	if r := b.New(8); r == nil || uintptr(unsafe.Pointer(r))-uintptr(unsafe.Pointer(&own)) < unsafe.Sizeof(own) {
		t.Fatal("New after the storage given to Use is used up did not make a block")
	}
}

// TestBlocksTakeAllocateOncePerBlock: runs allocate as records do, once
// per block; Take(0, b) is nil and allocates nothing, and neither does a
// run from storage given to Use.
func TestBlocksTakeAllocateOncePerBlock(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		var b Blocks[blockRec]
		for i := 0; i < 16; i++ {
			b.Take(4, 16)
		}
	})
	if allocs != 4 {
		t.Fatalf("16 runs of 4 from blocks of 16 allocate %v times, want 4", allocs)
	}
	var b Blocks[blockRec]
	b.Take(1, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		if b.Take(0, 16) != nil {
			t.Fatal("Take(0, 16) is not nil")
		}
	}); allocs != 0 {
		t.Fatalf("Take(0, 16) allocates %v times, want 0", allocs)
	}
	own := make([]blockRec, 8)
	if allocs := testing.AllocsPerRun(1, func() {
		b.Use(own)
		b.Take(3, 16)
		b.Take(5, 16)
	}); allocs != 0 {
		t.Fatalf("runs from storage given to Use allocate %v times, want 0", allocs)
	}
}

// TestBlocksGrowCopiesIntoDoublingRuns: Grow hands s back while it has the
// room, and otherwise a copy of it in a run of at least twice its room (and
// of the asked minimum) from the current block, which a list grown one
// element at a time leaves only when the block is used up: 100 elements
// grown from nil in runs from blocks of 64 take 3 allocations (runs of 4, 8,
// 16 and 32 share the first block, 64 and 128 make one each).
func TestBlocksGrowCopiesIntoDoublingRuns(t *testing.T) {
	var b Blocks[int]
	s := b.Grow(nil, 3, 4, 64)
	if len(s) != 0 || cap(s) != 4 {
		t.Fatalf("Grow(nil, 3, 4, 64): length %d, capacity %d, want 0 and 4", len(s), cap(s))
	}
	s = append(s, 1, 2, 3)
	if got := b.Grow(s, 1, 4, 64); &got[:1][0] != &s[0] || cap(got) != 4 {
		t.Fatal("Grow with room to spare did not return the list itself")
	}
	s = b.Grow(s, 2, 4, 64)
	if len(s) != 3 || cap(s) != 8 || s[0] != 1 || s[2] != 3 {
		t.Fatalf("Grow(s, 2, 4, 64) of 3 in 4: %v, capacity %d, want [1 2 3] in 8", s, cap(s))
	}
	allocs := testing.AllocsPerRun(20, func() {
		var b Blocks[int]
		var s []int
		for i := 0; i < 100; i++ {
			s = append(b.Grow(s, 1, 4, 64), i)
		}
		for i, v := range s {
			if v != i {
				t.Fatalf("element %d reads %d after growing", i, v)
			}
		}
	})
	if allocs != 3 {
		t.Fatalf("growing 100 elements from blocks of 64 allocates %v times, want 3", allocs)
	}
}

// TestRecyclerReusesLastReleasedFirst: New hands back the record put back
// last, with whatever Put got; only when none waits does it carve a zeroed
// record from a block. Held and Idle count records out and records back.
func TestRecyclerReusesLastReleasedFirst(t *testing.T) {
	var r Recycler[blockRec]
	a, b, c := r.New(2), r.New(2), r.New(2)
	if a == b || b == c || a == c {
		t.Fatal("fresh records are not distinct")
	}
	if r.Held() != 3 || r.Idle() != 0 {
		t.Fatalf("Held %d, Idle %d after three News, want 3 and 0", r.Held(), r.Idle())
	}
	a.a, b.a = 1, 2
	r.Put(a)
	r.Put(b)
	if r.Held() != 1 || r.Idle() != 2 {
		t.Fatalf("Held %d, Idle %d after two Puts, want 1 and 2", r.Held(), r.Idle())
	}
	if got := r.New(2); got != b || got.a != 2 {
		t.Fatalf("New returned %p (a=%d), want the last released %p as Put left it", got, got.a, b)
	}
	if got := r.New(2); got != a {
		t.Fatalf("New returned %p, want %p", got, a)
	}
	if d := r.New(2); *d != (blockRec{}) || d == a || d == b || d == c {
		t.Fatalf("with nothing released New returned %p %+v, want a fresh zeroed record", d, *d)
	}
	if r.Held() != 4 || r.Idle() != 0 {
		t.Fatalf("Held %d, Idle %d, want 4 and 0", r.Held(), r.Idle())
	}
}

// TestRecyclerCycleAllocatesNothing: once a record has been released, a
// New/Put cycle reuses it and allocates nothing; a record of block 1 is
// one allocation of its own.
func TestRecyclerCycleAllocatesNothing(t *testing.T) {
	var r Recycler[blockRec]
	r.Put(r.New(1))
	if allocs := testing.AllocsPerRun(100, func() { r.Put(r.New(1)) }); allocs != 0 {
		t.Fatalf("a New/Put cycle allocates %v times, want 0", allocs)
	}
	var fresh Recycler[blockRec]
	if allocs := testing.AllocsPerRun(100, func() { fresh.New(1) }); allocs != 1 {
		t.Fatalf("a fresh record of block 1 allocates %v times, want 1", allocs)
	}
}
