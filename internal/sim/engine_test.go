package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(10, func() {
		got = append(got, e.Now())
		e.Schedule(5, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v, want [10 15]", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}

func TestEngineAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// TestEngineEventLimitExact: SetEventLimit(n) means at most n events — the
// nth event runs, the (n+1)th panics.
func TestEngineEventLimitExact(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(3)
	ran := 0
	for i := 0; i < 3; i++ {
		e.Schedule(Duration(i+1), func() { ran++ })
	}
	e.Run() // exactly the limit: fine
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
	e.Schedule(1, func() { ran++ })
	defer func() {
		if recover() == nil {
			t.Error("event beyond the limit did not panic")
		}
		if ran != 3 {
			t.Errorf("event beyond the limit executed (ran = %d)", ran)
		}
	}()
	e.Run()
}

// TestEngineRunUntilEventLimit: RunUntil does the same limit accounting as
// Run.
func TestEngineRunUntilEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(1)
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(2, func() { ran++ })
	e.RunUntil(1)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil beyond the event limit did not panic")
		}
		if ran != 1 {
			t.Errorf("event beyond the limit executed (ran = %d)", ran)
		}
	}()
	e.RunUntil(2)
}

// TestEngineRunRespectsKilled: an event queued before Kill never runs.
func TestEngineRunRespectsKilled(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() { t.Error("event ran after Kill") })
	e.Kill()
	e.Run()
	if e.Executed() != 0 {
		t.Fatalf("executed = %d after Kill", e.Executed())
	}
}

// TestEngineRunCausality: Run checks that the queue never goes backwards.
// The queue cannot be corrupted through the public API (Schedule delays are
// unsigned), so plant the bad event directly through the later lane's push.
func TestEngineRunCausality(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run() // now = 10
	e.seq++
	e.push(5, func() { t.Error("an event in the past ran") })
	defer func() {
		if recover() == nil {
			t.Error("Run executed an event in the past")
		}
	}()
	e.Run()
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(100)
	var loop func()
	loop = func() { e.Schedule(1, loop) }
	e.Schedule(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("event limit did not panic")
		}
	}()
	e.Run()
}

func TestEngineKillStopsScheduling(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Kill()
	e.Schedule(1, func() { t.Error("event ran after Kill") })
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Kill", e.Pending())
	}
}

// TestEngineDeterminism checks that the same schedule, built in a random
// order, always executes in the same total order (time, then insertion seq).
func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var got []int
		// Insertion order is part of the schedule identity, so build the
		// same (time, id) pairs in a fixed order, but with random times.
		for id := 0; id < 200; id++ {
			id := id
			at := Duration(rng.Intn(50))
			e.Schedule(at, func() { got = append(got, id) })
		}
		e.Run()
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, events run in nondecreasing time order.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Time
		for _, d := range delays {
			d := Duration(d)
			e.Schedule(d, func() { times = append(times, e.Now()) })
		}
		e.Run()
		if !sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) {
			return false
		}
		// Every scheduled event ran.
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
