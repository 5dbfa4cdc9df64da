package sim

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// expectGoroutines fails unless the goroutine count comes back to want: a
// proc's coroutine is a goroutine to the runtime, so one that Kill did not
// end shows up here. It polls so that goroutines still on their way out are
// not counted as leaks.
func expectGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: leaked proc coroutines", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillManyParkedProcs: Kill unwinds hundreds of parked procs and the
// live-proc counter settles at zero. Run with -race.
func TestKillManyParkedProcs(t *testing.T) {
	const n = 500
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < n; i++ {
		e.Spawn("parked", func(p *Proc) {
			p.Park() // never woken; unwinds on Kill
			t.Error("parked proc resumed unexpectedly")
		})
	}
	e.Run()
	if got := e.LiveProcs(); got != n {
		t.Fatalf("live procs = %d, want %d before Kill", got, n)
	}
	e.Kill()
	// Every body has unwound when Kill returns, so the counter is exact here.
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", got)
	}
	expectGoroutines(t, before)
	// Idempotent, and further runs are no-ops.
	e.Kill()
	e.Run()
}

// TestKillBeforeRun kills an engine whose procs never got their first
// handoff. Their bodies never run, so nothing on the proc side can settle
// the counter or end the coroutine: Kill has to do both.
func TestKillBeforeRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.Spawn("unstarted", func(p *Proc) {
			t.Error("proc body ran despite Kill before Run")
		})
	}
	e.Kill()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", got)
	}
	expectGoroutines(t, before)
}

// TestKillWithReparkingDefer: a proc whose defers park again (cleanup
// Sleeps during unwind) must not deadlock Kill — parking on a stopped proc
// re-panics instead of waiting for a handoff that will never come — and
// the defers after it still run.
func TestKillWithReparkingDefer(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	cleaned := 0
	e.Spawn("cleanup", func(p *Proc) {
		defer func() { cleaned++ }()
		defer p.Sleep(1) // runs during the killed{} unwind
		defer func() { cleaned++ }()
		defer p.Park()
		p.Park()
		t.Error("parked proc resumed unexpectedly")
	})
	e.Run()
	e.Kill()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", got)
	}
	if cleaned != 2 {
		t.Fatalf("%d of 2 cleanup defers ran during the unwind", cleaned)
	}
	expectGoroutines(t, before)
}

// TestKillIgnoresPanicDuringUnwind: a body that panics for real while Kill
// unwinds it must not make Kill panic half-way through the proc list.
func TestKillIgnoresPanicDuringUnwind(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad-cleanup", func(p *Proc) {
		defer func() { panic("cleanup failed") }()
		p.Park()
	})
	e.Spawn("bystander", func(p *Proc) { p.Park() })
	e.Run()
	e.Kill()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0 after Kill", got)
	}
}

// TestSpawnOnKilledEngine: the proc comes back dead, its body never runs,
// no coroutine is created for it, and a Reset revives the engine.
func TestSpawnOnKilledEngine(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Kill()
	p := e.Spawn("late", func(p *Proc) { t.Error("body ran on a killed engine") })
	if p.Name() != "late" {
		t.Fatalf("name = %q", p.Name())
	}
	e.Run()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0", got)
	}
	expectGoroutines(t, before)
	e.Reset()
	ran := false
	e.Spawn("revived", func(p *Proc) { p.Sleep(1); ran = true })
	e.Run()
	if !ran || e.LiveProcs() != 0 {
		t.Fatalf("after Reset: ran=%v live=%d", ran, e.LiveProcs())
	}
}

// TestPoolReuseAfterKill: an engine killed with procs in every state —
// never started, parked, finished, parked with a reparking defer — goes
// through the pool and comes back with none of them.
func TestPoolReuseAfterKill(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool()
	for round := 0; round < 3; round++ {
		e := pool.Get()
		e.Spawn("finished", func(p *Proc) { p.Sleep(1) })
		e.Spawn("parked", func(p *Proc) { p.Park() })
		e.Spawn("reparking", func(p *Proc) {
			defer p.Yield()
			p.Park()
		})
		e.Run()
		e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted body ran") })
		if got := e.LiveProcs(); got != 3 {
			t.Fatalf("round %d: live procs = %d, want 3", round, got)
		}
		e.Kill()
		if got := e.LiveProcs(); got != 0 {
			t.Fatalf("round %d: live procs = %d after Kill", round, got)
		}
		pool.Put(e)
	}
	expectGoroutines(t, before)
}

// TestManyEnginesConcurrently drives independent engines from independent
// goroutines — the usage pattern of the parallel bench harness — and checks
// determinism across them under -race.
func TestManyEnginesConcurrently(t *testing.T) {
	run := func() Time {
		e := NewEngine()
		for i := 0; i < 20; i++ {
			d := Duration(i * 3)
			e.Spawn("w", func(p *Proc) {
				p.Sleep(d)
				p.Sleep(7)
			})
		}
		e.Run()
		now := e.Now()
		e.Kill()
		return now
	}
	want := run()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				if got := run(); got != want {
					t.Errorf("final time = %d, want %d", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestProcPanicPropagatesToEngineSide: a real panic inside a proc body is
// re-raised on the goroutine driving the simulation (recoverable, e.g. by
// the bench harness) instead of crashing the process from the proc's
// coroutine.
func TestProcPanicPropagatesToEngineSide(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the proc panic to surface on the engine side")
		}
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), `proc "bad" panicked: boom`) {
			t.Fatalf("unexpected panic value: %v", r)
		}
		if got := e.LiveProcs(); got != 0 {
			t.Errorf("live procs = %d, want 0 after fault", got)
		}
		e.Kill()
	}()
	e.Run()
	t.Fatal("Run returned without panicking")
}

// TestLazyNameOnlyOnFault: SpawnLazy formats the name only when somebody
// reads it, and a fault report is such a reader.
func TestLazyNameOnlyOnFault(t *testing.T) {
	e := NewEngine()
	calls := 0
	name := func(i int) string { calls++; return fmt.Sprintf("lazy%d", i) }
	e.SpawnLazy(name, 6, func(p *Proc) { p.Sleep(1) })
	e.Run()
	if calls != 0 {
		t.Fatalf("name formatted %d times for a proc that never faulted", calls)
	}
	e.SpawnLazy(name, 7, func(p *Proc) { panic("boom") })
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || err.Error() != `sim: proc "lazy7" panicked: boom` {
			t.Fatalf("unexpected panic value: %v", r)
		}
		if calls != 1 {
			t.Fatalf("name formatted %d times, want 1", calls)
		}
		e.Kill()
	}()
	e.Run()
	t.Fatal("Run returned without panicking")
}
