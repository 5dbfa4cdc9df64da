package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// buildFanoutNoRun assembles the reliableFanout workload without running
// it, so the caller controls execution (RunCtx, partial runs, resumes).
func buildFanoutNoRun(t *testing.T, s *System, n int) []error {
	t.Helper()
	ready := sim.NewFuture[cap.Selector](s.Eng)
	var wg sim.WaitGroup
	wg.Add(n)
	errs := make([]error, n)
	root, err := s.SpawnOn(s.userPEs[0], "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
		wg.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		i := i
		if _, err := s.SpawnOn(s.userPEs[1+i], fmt.Sprintf("c%d", i), func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			_, errs[i] = v.ObtainFrom(p, root.ID, sel)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	return errs
}

// TestSystemRunCtxCancelDeterministic: cancelling a System's run
// (Eng.RunCtx) from an in-simulation event stops at a reproducible executed
// count and virtual time, the resumed run completes every operation, and the final kernel
// stats match an uncancelled run. Teardown after a cancelled run is clean
// (Close settles LiveProcs to zero).
func TestSystemRunCtxCancelDeterministic(t *testing.T) {
	const kids = 12
	cfg := Config{Kernels: 4, UserPEs: kids + 7}

	// Uncancelled reference.
	refSys := MustNew(cfg)
	refErrs := buildFanoutNoRun(t, refSys, kids)
	if err := refSys.Eng.RunCtx(context.Background()); err != nil {
		t.Fatalf("reference: %v", err)
	}
	refStats := refSys.TotalStats()
	for i, err := range refErrs {
		if err != nil {
			t.Fatalf("reference client %d: %v", i, err)
		}
	}
	refSys.Close()

	partial := func() (uint64, sim.Time) {
		s := MustNew(cfg)
		errs := buildFanoutNoRun(t, s, kids)
		ctx, cancel := context.WithCancel(context.Background())
		// Cancel from inside the simulation at a fixed virtual time: the
		// poll boundary makes the stop point a pure function of the event
		// sequence.
		s.Eng.Schedule(3_000, cancel)
		if err := s.Eng.RunCtx(ctx); err != context.Canceled {
			t.Fatalf("RunCtx = %v, want context.Canceled", err)
		}
		executed, now := s.Eng.Executed(), s.Now()
		// The engine stays valid: resuming completes the workload exactly.
		if err := s.Eng.RunCtx(context.Background()); err != nil {
			t.Fatalf("resume: %v", err)
		}
		for i, err := range errs {
			if err != nil {
				t.Errorf("client %d after resume: %v", i, err)
			}
		}
		if st := s.TotalStats(); st != refStats {
			t.Errorf("resumed stats differ from uncancelled run:\n%+v\n%+v", st, refStats)
		}
		s.Close()
		if n := s.Eng.LiveProcs(); n != 0 {
			t.Errorf("LiveProcs = %d after Close, want 0", n)
		}
		return executed, now
	}

	exec1, now1 := partial()
	if exec1 == 0 || exec1 >= refSys.Eng.Executed() {
		t.Fatalf("cancellation did not strike mid-run: executed=%d of %d", exec1, refSys.Eng.Executed())
	}
	if execR, nowR := partial(); execR != exec1 || nowR != now1 {
		t.Errorf("repeat: cancel point (executed=%d now=%d) not reproducible (%d, %d)",
			execR, nowR, exec1, now1)
	}
}

// TestSystemRunCtxCancelPoolReuse: a pooled engine whose run was cancelled
// mid-flight — kernels and VPEs still parked — recycles through Pool.Put/Get
// into a fresh system that reproduces an independent run exactly.
func TestSystemRunCtxCancelPoolReuse(t *testing.T) {
	const kids = 12
	cfg := Config{Kernels: 4, UserPEs: kids + 7}

	ref := MustNew(cfg)
	buildFanoutNoRun(t, ref, kids)
	if err := ref.Eng.RunCtx(context.Background()); err != nil {
		t.Fatalf("reference: %v", err)
	}
	refStats := ref.TotalStats()
	ref.Close()

	pool := sim.NewPool()
	e := pool.Get()
	cfgPooled := cfg
	cfgPooled.Engine = e
	s1 := MustNew(cfgPooled)
	buildFanoutNoRun(t, s1, kids)
	ctx, cancel := context.WithCancel(context.Background())
	s1.Eng.Schedule(3_000, cancel)
	if err := s1.Eng.RunCtx(ctx); err != context.Canceled {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	pool.Put(e) // Reset: unwinds every parked kernel and VPE proc
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("LiveProcs = %d after Put, want 0", n)
	}

	e2 := pool.Get()
	if e2 != e {
		t.Fatalf("pool handed out a different engine")
	}
	cfgPooled.Engine = e2
	s2 := MustNew(cfgPooled)
	t.Cleanup(s2.Close)
	errs := buildFanoutNoRun(t, s2, kids)
	if err := s2.Eng.RunCtx(context.Background()); err != nil {
		t.Fatalf("reused engine: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d on reused engine: %v", i, err)
		}
	}
	if st := s2.TotalStats(); st != refStats {
		t.Errorf("pool-reused run stats differ from a fresh run:\n%+v\n%+v", st, refStats)
	}
	checkAudit(t, s2)
}
