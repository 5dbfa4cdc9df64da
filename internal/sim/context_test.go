package sim

import (
	"context"
	"testing"
	"time"
)

// TestRunCtxCompletes: with a live context, RunCtx behaves exactly like
// Run — the queue drains and nil is returned.
func TestRunCtxCompletes(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 10; i++ {
		d := Duration(i)
		e.Schedule(d, func() { ran++ })
	}
	if err := e.RunCtx(context.Background()); err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if ran != 10 || e.Pending() != 0 {
		t.Fatalf("ran=%d pending=%d, want 10/0", ran, e.Pending())
	}
}

// TestRunCtxAlreadyCancelled: a cancelled context executes nothing.
func TestRunCtxAlreadyCancelled(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() { t.Error("event ran under a cancelled context") })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunCtx(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e.Executed() != 0 || e.Pending() != 1 {
		t.Fatalf("executed=%d pending=%d, want 0/1", e.Executed(), e.Pending())
	}
}

// TestRunCtxStopsRunawaySim: an endlessly self-rescheduling simulation —
// the case Run would never return from — stops when the context is
// cancelled, and the engine remains usable: a later RunCtx resumes, and
// Kill composes (unwinding parked procs to an exact LiveProcs of zero).
func TestRunCtxStopsRunawaySim(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(1, tick) }
	e.Schedule(1, tick)
	e.Spawn("server", func(p *Proc) { p.Park() }) // parks forever

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := e.RunCtx(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	executed := e.Executed()
	if executed == 0 {
		t.Fatal("no events executed before cancellation")
	}

	// The engine is still consistent: a bounded resume makes progress.
	if err := e.RunUntilCtx(context.Background(), e.Now()+100); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if e.Executed() <= executed {
		t.Fatal("resumed run made no progress")
	}

	// Cancellation returns on the engine side, so Kill is legal here.
	e.Kill()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Kill, want 0", n)
	}
}

// TestRunUntilCtxHorizon: the time horizon still bounds a cancellable run.
func TestRunUntilCtxHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(5, func() { ran++ })
	e.Schedule(50, func() { ran++ })
	if err := e.RunUntilCtx(context.Background(), 10); err != nil {
		t.Fatalf("RunUntilCtx: %v", err)
	}
	if ran != 1 || e.Now() != 5 {
		t.Fatalf("ran=%d now=%d, want 1/5", ran, e.Now())
	}
}

// chains starts four bounded event chains on e, recording (chain, step) into
// log. onStep, when non-nil, observes the global step count — the hook the
// cancellation tests use to cancel from inside the simulation at a
// deterministic point.
func chains(e *Engine, steps int, log *[]uint64, onStep func(total int)) {
	total := 0
	var step func(d, i int)
	step = func(d, i int) {
		*log = append(*log, uint64(d)<<32|uint64(i))
		total++
		if onStep != nil {
			onStep(total)
		}
		if i+1 < steps {
			e.Schedule(Duration(1+d%3), func() { step(d, i+1) })
		}
	}
	for d := 0; d < 4; d++ {
		d := d
		e.Schedule(Duration(d+1), func() { step(d, 0) })
	}
}

func logsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunCtxCancelDeterministic: cancelling a run from inside the simulation
// stops at a deterministic event boundary — identical executed count, virtual
// time and trace prefix on every repeat — and a resumed run completes to the
// trace an uncancelled Run produces.
func TestRunCtxCancelDeterministic(t *testing.T) {
	const steps = 600
	var ref []uint64
	refEng := NewEngine()
	chains(refEng, steps, &ref, nil)
	refEng.Run()

	partial := func() (uint64, Time, []uint64, []uint64) {
		e := NewEngine()
		var log []uint64
		ctx, cancel := context.WithCancel(context.Background())
		chains(e, steps, &log, func(total int) {
			if total == 1000 {
				cancel()
			}
		})
		if err := e.RunCtx(ctx); err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		executed, now := e.Executed(), e.Now()
		prefix := append([]uint64(nil), log...)
		if err := e.RunCtx(context.Background()); err != nil {
			t.Fatalf("resume: %v", err)
		}
		return executed, now, prefix, log
	}

	exec1, now1, prefix1, full1 := partial()
	if exec1 == 0 || int(exec1) >= 4*steps {
		t.Fatalf("cancellation did not strike mid-run: executed=%d of %d", exec1, 4*steps)
	}
	if !logsEqual(prefix1, ref[:len(prefix1)]) {
		t.Fatalf("cancelled run's prefix is not a prefix of the reference")
	}
	if !logsEqual(full1, ref) {
		t.Fatalf("resumed run diverged from the uncancelled reference")
	}
	exec2, now2, prefix2, full2 := partial()
	if exec2 != exec1 || now2 != now1 || !logsEqual(prefix2, prefix1) || !logsEqual(full2, ref) {
		t.Errorf("repeat: cancel point (executed=%d now=%d) or trace differs from the first run (%d, %d)",
			exec2, now2, exec1, now1)
	}
}

// TestRunCtxCancelPoolReuse: an engine whose run was cancelled mid-flight
// (with a proc still parked) goes through Pool.Put/Get and reruns the same
// workload to the same trace as a never-cancelled fresh engine.
func TestRunCtxCancelPoolReuse(t *testing.T) {
	const steps = 400
	runFull := func(e *Engine) []uint64 {
		var log []uint64
		chains(e, steps, &log, nil)
		e.Spawn("waiter", func(p *Proc) { p.Park() })
		e.Run()
		return log
	}
	refEng := NewEngine()
	ref := runFull(refEng)
	refEng.Kill()

	pool := NewPool()
	e := pool.Get()
	var log []uint64
	ctx, cancel := context.WithCancel(context.Background())
	chains(e, steps, &log, func(total int) {
		if total == 500 {
			cancel()
		}
	})
	e.Spawn("waiter", func(p *Proc) { p.Park() })
	if err := e.RunCtx(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	pool.Put(e) // Reset: unwinds the parked proc
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Put, want 0", n)
	}

	e2 := pool.Get()
	if e2 != e {
		t.Fatalf("pool handed out a different engine")
	}
	if got := runFull(e2); !logsEqual(got, ref) {
		t.Fatalf("pool-reused engine diverged from a fresh engine's trace")
	}
	e2.Kill()
}
