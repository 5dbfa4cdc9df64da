package sim

import "testing"

// TestEngineResetFreshState: a used engine (events executed, procs spawned
// and left parked, event limit set) comes back from Reset indistinguishable
// from NewEngine.
func TestEngineResetFreshState(t *testing.T) {
	e := NewEngine()
	e.SetEventLimit(1000)
	e.Schedule(10, func() {})
	e.Spawn("parked", func(p *Proc) { p.Park() })
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d before Reset, want 1", e.LiveProcs())
	}
	e.Schedule(99, func() { t.Error("stale event survived Reset") })

	e.Reset()
	if e.Now() != 0 || e.Executed() != 0 || e.Pending() != 0 || e.LiveProcs() != 0 {
		t.Fatalf("Reset left state: now=%d executed=%d pending=%d procs=%d",
			e.Now(), e.Executed(), e.Pending(), e.LiveProcs())
	}
	// The limit must be cleared: more than 1000 events run fine now.
	ran := 0
	for i := 0; i < 1500; i++ {
		e.Schedule(Duration(i), func() { ran++ })
	}
	e.Run()
	if ran != 1500 {
		t.Fatalf("ran %d events after Reset, want 1500", ran)
	}
	if e.Now() != 1499 {
		t.Fatalf("Now() = %d after Reset+Run, want 1499", e.Now())
	}
}

// TestEngineResetAfterKill: Reset revives an engine that was already
// Killed (the normal harness sequence: task Closes the system, pool Resets
// the engine).
func TestEngineResetAfterKill(t *testing.T) {
	e := NewEngine()
	e.Spawn("server", func(p *Proc) {
		for {
			p.Sleep(5)
		}
	})
	e.RunUntil(50)
	e.Kill()
	e.Reset()
	ran := false
	e.Schedule(1, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("engine dead after Kill+Reset")
	}
	done := false
	e.Spawn("again", func(p *Proc) { p.Sleep(3); done = true })
	e.Run()
	if !done || e.LiveProcs() != 0 {
		t.Fatalf("proc after Kill+Reset: done=%v live=%d", done, e.LiveProcs())
	}
}

// TestPoolRecyclesEngines: Put shelves the engine, Get hands it back in
// fresh state; the backing arrays are reused (same engine pointer).
func TestPoolRecyclesEngines(t *testing.T) {
	p := NewPool()
	e1 := p.Get()
	e1.Schedule(1, func() {})
	e1.Run()
	p.Put(e1)
	if len(p.free) != 1 {
		t.Fatalf("%d engines shelved after Put, want 1", len(p.free))
	}
	e2 := p.Get()
	if e2 != e1 {
		t.Fatal("pool handed out a different engine than it shelved")
	}
	if e2.Now() != 0 || e2.Pending() != 0 || e2.Executed() != 0 {
		t.Fatalf("recycled engine not fresh: now=%d pending=%d executed=%d",
			e2.Now(), e2.Pending(), e2.Executed())
	}
	if len(p.free) != 0 {
		t.Fatalf("%d engines shelved after Get, want 0", len(p.free))
	}
	p.Put(nil) // no-op
	if len(p.free) != 0 {
		t.Fatal("Put(nil) shelved something")
	}
}

// TestPoolPutUnwindsParkedProcs: an experiment that leaks parked procs
// (e.g. server loops) is cleaned up by Put; nothing crosses into the next
// user of the engine.
func TestPoolPutUnwindsParkedProcs(t *testing.T) {
	p := NewPool()
	e := p.Get()
	for i := 0; i < 4; i++ {
		e.Spawn("leak", func(pr *Proc) { pr.Park() })
	}
	e.Run()
	if e.LiveProcs() != 4 {
		t.Fatalf("LiveProcs = %d, want 4", e.LiveProcs())
	}
	p.Put(e)
	if got := p.Get(); got.LiveProcs() != 0 {
		t.Fatalf("recycled engine has %d live procs", got.LiveProcs())
	}
}

// TestPoolReuseDeterminism: the same seeded scenario produces a
// bit-identical execution trace on a fresh engine and on a pooled engine
// that already ran a different workload — recycling must not leak state
// that shifts the (time, seq) order.
func TestPoolReuseDeterminism(t *testing.T) {
	want := driveQueue(NewEngine(), profiles[0], 7)

	p := NewPool()
	dirty := p.Get()
	driveQueue(dirty, profiles[0], 1234) // different workload to dirty the slabs
	dirty.Spawn("noise", func(pr *Proc) { pr.Park() })
	dirty.Run()
	p.Put(dirty)

	got := driveQueue(p.Get(), profiles[0], 7)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pooled trace diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
