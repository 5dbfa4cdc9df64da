package core

import (
	"errors"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// sleepUntil parks the proc until the given absolute simulation time (a
// no-op when that time has already passed — sim.Time is unsigned, so the
// comparison must precede the subtraction).
func sleepUntil(p *sim.Proc, t sim.Time) {
	if now := p.Now(); t > now {
		p.Sleep(t - now)
	}
}

// TestKernelRejoin: a kernel crashes at boot and recovers mid-run. Cross-
// kernel operations during the blackhole window fail with ErrPeerDead; the
// same operation after the rejoin handshake succeeds, the recovered kernel
// runs as a new incarnation, and no capability state leaks.
func TestKernelRejoin(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Kernels: []fault.KernelFault{
		{Kernel: 1, CrashAt: 1, RecoverAt: 8_000_000},
	}}
	s := MustNew(Config{Kernels: 2, UserPEs: 8, Faults: plan})
	t.Cleanup(s.Close)

	var rootPE, clientPE int
	for _, pe := range s.userPEs {
		if s.KernelOfPE(pe).ID() == 0 && rootPE == 0 {
			rootPE = pe
		}
		if s.KernelOfPE(pe).ID() == 1 && clientPE == 0 {
			clientPE = pe
		}
	}
	ready := sim.NewFuture[cap.Selector](s.Eng)
	var done sim.WaitGroup
	done.Add(1)
	var errCrashed, errRecovered error
	root, err := s.SpawnOn(rootPE, "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
		done.Wait(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnOn(clientPE, "client", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		// Kernel 1 is crashed: the spanning obtain must resolve to
		// ErrPeerDead, not hang — after the retransmit ladder, 60k + 120k +
		// 240k + 480k + 5 × 960k ≈ 5.7M cycles.
		_, errCrashed = v.ObtainFrom(p, root.ID, sel)
		// Past RecoverAt the rejoin handshake has run; the same obtain must
		// now succeed against the new incarnation.
		sleepUntil(p, 9_000_000)
		_, errRecovered = v.ObtainFrom(p, root.ID, sel)
		done.Done()
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()

	if !errors.Is(errCrashed, error(ErrPeerDead)) {
		t.Errorf("obtain during crash window = %v, want ErrPeerDead", errCrashed)
	}
	if errRecovered != nil {
		t.Errorf("obtain after recovery failed: %v", errRecovered)
	}
	if inc := s.Kernel(1).incarnation; inc != 2 {
		t.Errorf("recovered kernel incarnation = %d, want 2", inc)
	}
	if inc := s.Kernel(0).incarnation; inc != 1 {
		t.Errorf("surviving kernel incarnation = %d, want 1", inc)
	}
	st1 := s.Kernel(1).Stats()
	if st1.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", st1.Rejoins)
	}
	if st1.RejoinCycles == 0 {
		t.Errorf("rejoin recorded no cycles")
	}
	if s.TotalStats().DeadPeers == 0 {
		t.Errorf("crash window produced no death verdict")
	}
	checkAudit(t, s)
}

// TestRejoinReplaysOrphanedRevocation: a revocation races the crash — the
// local parent is deleted but the remote child is unreachable, orphaning
// authority on the crashed kernel. The recorded fix must be replayed at
// rejoin so the orphan is revoked on the new incarnation.
func TestRejoinReplaysOrphanedRevocation(t *testing.T) {
	plan := &fault.Plan{Seed: 3, Kernels: []fault.KernelFault{
		{Kernel: 1, CrashAt: 200_000, RecoverAt: 800_000},
	}}
	s := MustNew(Config{Kernels: 2, UserPEs: 8, Faults: plan})
	t.Cleanup(s.Close)

	var rootPE, clientPE int
	for _, pe := range s.userPEs {
		if s.KernelOfPE(pe).ID() == 0 && rootPE == 0 {
			rootPE = pe
		}
		if s.KernelOfPE(pe).ID() == 1 && clientPE == 0 {
			clientPE = pe
		}
	}
	ready := sim.NewFuture[cap.Selector](s.Eng)
	obtained := sim.NewFuture[struct{}](s.Eng)
	var clientID int
	root, err := s.SpawnOn(rootPE, "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
		obtained.Wait(p)
		// Revoke mid-blackhole: the remote-child revocation fails with
		// ErrPeerDead and is recorded as an orphan fix.
		sleepUntil(p, 300_000)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
		}
		// Stay alive past the rejoin so the replay drains before Run ends.
		sleepUntil(p, 1_400_000)
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := s.SpawnOn(clientPE, "client", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
			t.Errorf("pre-crash obtain: %v", err)
		}
		obtained.Complete(struct{}{})
	})
	if err != nil {
		t.Fatal(err)
	}
	clientID = client.ID
	s.Run()

	if got := ownedMemCaps(s, clientID); got != 0 {
		t.Errorf("client still owns %d memory caps after replayed revocation", got)
	}
	if st := s.Kernel(1).Stats(); st.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1", st.Rejoins)
	}
	checkAudit(t, s)
}

// TestRejoinDeterministic: a lossy run with a crash+recover window in the
// middle reproduces exactly under the same seed — rejoin bookkeeping,
// orphan replay and stale-incarnation rejections included.
func TestRejoinDeterministic(t *testing.T) {
	run := func() (KernelStats, fault.Stats, uint64) {
		const kids = 16
		plan := &fault.Plan{Seed: 23, Drop: 0.08, Kernels: []fault.KernelFault{
			{Kernel: 1, CrashAt: 30_000, RecoverAt: 400_000},
		}}
		s, _ := reliableFanout(t, Config{Kernels: 4, UserPEs: kids + 7, Faults: plan}, kids)
		if got := s.Kernel(1).Stats().Rejoins; got != 1 {
			t.Errorf("Rejoins = %d, want 1", got)
		}
		checkAudit(t, s)
		return s.TotalStats(), s.FaultStats(), s.Net.Stats().Lost
	}
	st1, fs1, lost1 := run()
	st2, fs2, lost2 := run()
	if st1 != st2 {
		t.Errorf("kernel stats differ across identical crash+recover runs:\n%+v\n%+v", st1, st2)
	}
	if fs1 != fs2 {
		t.Errorf("injector stats differ across identical crash+recover runs:\n%+v\n%+v", fs1, fs2)
	}
	if lost1 != lost2 {
		t.Errorf("lost counts differ: %d vs %d", lost1, lost2)
	}
}
