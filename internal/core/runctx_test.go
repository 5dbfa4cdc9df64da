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

// runCtxModes are the machines the cancel/resume tests run on: the
// sequential engine and a rounds machine, whose RunCtx goes through the
// engine's merged multi-domain loop.
var runCtxModes = []string{SimModeMerged, SimModeRounds}

// TestSystemRunCtxCancelDeterministic: cancelling System.RunCtx from an
// in-simulation event stops at a reproducible executed count and virtual
// time, the resumed run completes every operation, and the final kernel
// stats match an uncancelled run — on the sequential engine and on a rounds
// machine. Teardown after a cancelled run is clean (Close settles LiveProcs
// to zero).
func TestSystemRunCtxCancelDeterministic(t *testing.T) {
	const kids = 12
	for _, mode := range runCtxModes {
		cfg := Config{Kernels: 4, UserPEs: kids + 7, SimMode: mode}

		// Uncancelled reference.
		refSys := MustNew(cfg)
		refErrs := buildFanoutNoRun(t, refSys, kids)
		if err := refSys.RunCtx(context.Background()); err != nil {
			t.Fatalf("%s reference: %v", mode, err)
		}
		refStats := refSys.TotalStats()
		for i, err := range refErrs {
			if err != nil {
				t.Fatalf("%s reference client %d: %v", mode, i, err)
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
			if err := s.RunCtx(ctx); err != context.Canceled {
				t.Fatalf("%s: RunCtx = %v, want context.Canceled", mode, err)
			}
			executed, now := s.Eng.Executed(), s.Now()
			// The engine stays valid: resuming completes the workload exactly.
			if err := s.RunCtx(context.Background()); err != nil {
				t.Fatalf("%s resume: %v", mode, err)
			}
			for i, err := range errs {
				if err != nil {
					t.Errorf("%s client %d after resume: %v", mode, i, err)
				}
			}
			if st := s.TotalStats(); st != refStats {
				t.Errorf("%s: resumed stats differ from uncancelled run:\n%+v\n%+v", mode, st, refStats)
			}
			s.Close()
			if n := s.Eng.LiveProcs(); n != 0 {
				t.Errorf("%s: LiveProcs = %d after Close, want 0", mode, n)
			}
			return executed, now
		}

		exec1, now1 := partial()
		if exec1 == 0 || exec1 >= refSys.Eng.Executed() {
			t.Fatalf("%s: cancellation did not strike mid-run: executed=%d of %d", mode, exec1, refSys.Eng.Executed())
		}
		if execR, nowR := partial(); execR != exec1 || nowR != now1 {
			t.Errorf("%s repeat: cancel point (executed=%d now=%d) not reproducible (%d, %d)",
				mode, execR, nowR, exec1, now1)
		}
	}
}

// TestSystemRunCtxCancelPoolReuse: a pooled engine whose run was cancelled
// mid-flight — kernels and VPEs still parked, on a rounds machine the event
// domains still attached — recycles through Pool.Put/Get into a fresh
// system that reproduces an independent run exactly.
func TestSystemRunCtxCancelPoolReuse(t *testing.T) {
	const kids = 12
	for _, mode := range runCtxModes {
		cfg := Config{Kernels: 4, UserPEs: kids + 7, SimMode: mode}

		ref := MustNew(cfg)
		buildFanoutNoRun(t, ref, kids)
		if err := ref.RunCtx(context.Background()); err != nil {
			t.Fatalf("%s reference: %v", mode, err)
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
		if err := s1.RunCtx(ctx); err != context.Canceled {
			t.Fatalf("%s: RunCtx = %v, want context.Canceled", mode, err)
		}
		pool.Put(e) // Reset: unwinds every parked kernel and VPE proc
		if n := e.LiveProcs(); n != 0 {
			t.Fatalf("%s: LiveProcs = %d after Put, want 0", mode, n)
		}

		e2 := pool.Get()
		if e2 != e {
			t.Fatalf("%s: pool handed out a different engine", mode)
		}
		cfgPooled.Engine = e2
		s2 := MustNew(cfgPooled)
		t.Cleanup(s2.Close)
		errs := buildFanoutNoRun(t, s2, kids)
		if err := s2.RunCtx(context.Background()); err != nil {
			t.Fatalf("%s reused engine: %v", mode, err)
		}
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s client %d on reused engine: %v", mode, i, err)
			}
		}
		if st := s2.TotalStats(); st != refStats {
			t.Errorf("%s: pool-reused run stats differ from a fresh run:\n%+v\n%+v", mode, st, refStats)
		}
		checkAllInvariants(t, s2)
	}
}
