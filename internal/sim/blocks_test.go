package sim

import (
	"runtime"
	"testing"
	"time"
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
// without a further New to move it off the block.
func TestBlocksDieWithTheirRecords(t *testing.T) {
	b := new(Blocks[[64]byte])
	collected := make(chan struct{})
	runtime.SetFinalizer(b.New(1), func(*[64]byte) { close(collected) })
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatal("a used-up block nobody references is still reachable")
		}
	}
	runtime.KeepAlive(b)
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
