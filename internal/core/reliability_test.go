package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// reliableFanout spawns a root with one memory capability and n clients
// spread over the machine's kernels, each obtaining it once. Obtain errors
// are collected, not fatal — under fault injection they are data.
func reliableFanout(t *testing.T, cfg Config, n int) (*System, []error) {
	t.Helper()
	s := MustNew(cfg)
	t.Cleanup(s.Close)
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
	s.Run()
	return s, errs
}

// TestReliableModeLossless: the reliability layer on a lossless fabric is
// pure bookkeeping — every operation succeeds and no reliability event
// (retransmit, dedup, late reply, death) ever fires at this scale.
func TestReliableModeLossless(t *testing.T) {
	const kids = 12
	s, errs := reliableFanout(t, Config{Kernels: 4, UserPEs: kids + 7, Faults: &fault.Plan{}}, kids)
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	st := s.TotalStats()
	if st.Retransmits != 0 || st.DupSuppressed != 0 || st.LateReplies != 0 ||
		st.FailFast != 0 || st.DeadPeers != 0 || st.Recovered != 0 {
		t.Errorf("reliability events on a lossless idle-enough fabric: %+v", st)
	}
	if lost := s.Net.Stats().Lost; lost != 0 {
		t.Errorf("Lost = %d on a lossless fabric", lost)
	}
	checkAudit(t, s)
}

// TestReliableRecoversFromDrops: with a lossy, duplicating, jittery fabric
// every obtain still succeeds — retransmission recovers the losses and
// dedup absorbs the duplicates.
func TestReliableRecoversFromDrops(t *testing.T) {
	const kids = 24
	plan := &fault.Plan{Seed: 11, Drop: 0.10, Dup: 0.05, Jitter: 200}
	s, errs := reliableFanout(t, Config{Kernels: 4, UserPEs: kids + 7, Faults: plan}, kids)
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	fs := s.FaultStats()
	if fs.Inspected == 0 {
		t.Fatalf("injector saw no kernel-link traffic")
	}
	if fs.Dropped == 0 {
		t.Fatalf("plan dropped nothing (Inspected=%d); pick a hotter seed", fs.Inspected)
	}
	st := s.TotalStats()
	if st.Retransmits == 0 {
		t.Errorf("drops occurred (%d) but nothing was retransmitted", fs.Dropped)
	}
	if got := s.Net.Stats().Lost; got < fs.Dropped {
		t.Errorf("Net lost %d < injector dropped %d", got, fs.Dropped)
	}
	checkAudit(t, s)
}

// TestFaultyRunDeterministic: the same seed reproduces a faulty run
// exactly — kernel stats, injector stats and event counts all match.
func TestFaultyRunDeterministic(t *testing.T) {
	run := func() (KernelStats, fault.Stats, uint64) {
		const kids = 16
		plan := &fault.Plan{Seed: 17, Drop: 0.10, Dup: 0.05, Jitter: 300}
		s, _ := reliableFanout(t, Config{Kernels: 4, UserPEs: kids + 7, Faults: plan}, kids)
		return s.TotalStats(), s.FaultStats(), s.Net.Stats().Lost
	}
	st1, fs1, lost1 := run()
	st2, fs2, lost2 := run()
	if st1 != st2 {
		t.Errorf("kernel stats differ across identical faulty runs:\n%+v\n%+v", st1, st2)
	}
	if fs1 != fs2 {
		t.Errorf("injector stats differ across identical faulty runs:\n%+v\n%+v", fs1, fs2)
	}
	if lost1 != lost2 {
		t.Errorf("lost counts differ: %d vs %d", lost1, lost2)
	}
}

// TestDeadKernelFailFast: a kernel whose links are dead from the start
// cannot reach the capability owner; its clients' operations must resolve
// to ErrPeerDead — promptly for requests minted after the death verdict —
// and the run must terminate (no hung futures).
func TestDeadKernelFailFast(t *testing.T) {
	// Kernel 1 crashes before any traffic.
	plan := &fault.Plan{Seed: 1, Kernels: []fault.KernelFault{{Kernel: 1, CrashAt: 1}}}
	s := MustNew(Config{Kernels: 2, UserPEs: 8, Faults: plan})
	t.Cleanup(s.Close)

	// Root lives in kernel 0's group; the client in kernel 1's.
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
	var err1, err2 error
	var rootDone, clientDone bool
	root, err := s.SpawnOn(rootPE, "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
		done.Wait(p)
		rootDone = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnOn(clientPE, "client", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		_, err1 = v.ObtainFrom(p, root.ID, sel)
		// The second attempt runs after the death verdict: it must fail
		// fast, without burning another retry ladder.
		_, err2 = v.ObtainFrom(p, root.ID, sel)
		done.Done()
		clientDone = true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run() // must terminate — a hung future would park the procs forever

	if err1 == nil || err2 == nil {
		t.Fatalf("obtains across a dead link succeeded: err1=%v err2=%v", err1, err2)
	}
	if !errors.Is(err1, error(ErrPeerDead)) {
		t.Errorf("err1 = %v, want ErrPeerDead", err1)
	}
	if !errors.Is(err2, error(ErrPeerDead)) {
		t.Errorf("err2 = %v, want ErrPeerDead", err2)
	}
	st := s.TotalStats()
	if st.DeadPeers == 0 {
		t.Errorf("no kernel declared its peer dead: %+v", st)
	}
	if st.FailFast == 0 {
		t.Errorf("post-death request did not fail fast: %+v", st)
	}
	// The kernels keep their worker procs parked by design; the hung-future
	// check is that both user programs ran to completion.
	if !rootDone || !clientDone {
		t.Errorf("user procs wedged: rootDone=%v clientDone=%v", rootDone, clientDone)
	}
}

// TestBaselineHasNoReliabilityState: without a fault plan the reliable
// layer must not exist at all — no peer record holds a reply cache or a
// live transmission, and its counters stay zero, preserving the
// byte-identical baseline.
func TestBaselineHasNoReliabilityState(t *testing.T) {
	const kids = 8
	s, errs := reliableFanout(t, Config{Kernels: 4, UserPEs: kids + 7}, kids)
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	records := 0
	for ki := 0; ki < s.Kernels(); ki++ {
		k := s.Kernel(ki)
		if k.reliable {
			t.Errorf("kernel %d runs the reliable layer without a fault plan", ki)
		}
		for dst, pr := range k.peers {
			if pr == nil {
				continue
			}
			records++
			if pr.replies != nil || pr.answered != nil || pr.live != nil || pr.dead || pr.inc != 1 {
				t.Errorf("kernel %d has reliability state toward kernel %d without a fault plan", ki, dst)
			}
		}
	}
	if records == 0 {
		t.Error("no peer record at all: the fan-out did not cross kernels")
	}
	st := s.TotalStats()
	if st.Retransmits+st.DupSuppressed+st.ReplayedReplies+st.LateReplies+
		st.FailFast+st.DeadPeers+st.Recovered != 0 {
		t.Errorf("baseline run counted reliability events: %+v", st)
	}
}

// spanningChurn runs n spanning obtains and revokes back to back between a
// machine's first and last user PE, which sit on different kernels: the
// owner derives a child of its root, the far VPE obtains it, and the owner
// revokes it, which takes one forward to the far kernel. It returns the
// machine, drained, and how many operations failed.
func spanningChurn(t *testing.T, cfg Config, n int) (*System, int) {
	t.Helper()
	s := MustNew(cfg)
	t.Cleanup(s.Close)
	pes := s.UserPEs()
	offered := sim.NewQueue[cap.Selector](s.Eng)
	obtained := sim.NewQueue[struct{}](s.Eng)
	failed := 0
	owner, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
		root, err := v.AllocMem(p, 1<<20, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			mid, err := v.DeriveMem(p, root, 0, 4096, dtu.PermRW)
			if err != nil {
				t.Errorf("derive: %v", err)
				return
			}
			offered.Push(mid)
			obtained.Pop(p)
			if err := v.Revoke(p, mid); err != nil {
				failed++
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnOn(pes[len(pes)-1], "far", func(v *VPE, p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := v.ObtainFrom(p, owner.ID, offered.Pop(p)); err != nil {
				failed++
			}
			obtained.Push(struct{}{})
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s, failed
}

// TestRecycledTransmissionsStayQuiet: 200 spanning obtains and revokes in
// reliable mode on a lossless fabric, direct and batched. Each operation's
// transmission records are recycled while the timers of earlier ones are
// still pending, so a stale timer reaching a reused record would show up as
// a spurious retransmit, a duplicate or a late reply; none appears.
func TestRecycledTransmissionsStayQuiet(t *testing.T) {
	for _, tc := range []struct {
		name     string
		batching IKCBatching
	}{
		{"direct", IKCBatching{}},
		{"batched", IKCBatching{Exchange: true, Revoke: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{}, IKCBatching: tc.batching}
			s, failed := spanningChurn(t, cfg, 200)
			if failed != 0 {
				t.Errorf("%d operations failed on a lossless fabric", failed)
			}
			st := s.TotalStats()
			if st.Retransmits != 0 || st.LateReplies != 0 || st.DupSuppressed != 0 {
				t.Errorf("Retransmits %d, LateReplies %d, DupSuppressed %d, want all 0",
					st.Retransmits, st.LateReplies, st.DupSuppressed)
			}
			if len(s.xmits) == 0 {
				t.Error("no transmission record came back to the free list")
			}
			checkAudit(t, s)
		})
	}
}

// TestRecycledTransmissionsUnderDrops: the same churn on a fabric dropping
// 5% of kernel messages, direct and batched, at five seeds. Its
// retransmissions, recoveries and suppressed duplicates are pinned to the
// values the reliable layer produced before its transmission records were
// recycled.
func TestRecycledTransmissionsUnderDrops(t *testing.T) {
	// Per seed 1..5: Retransmits, Recovered, RecoveryCycles, DupSuppressed.
	for _, tc := range []struct {
		name     string
		batching IKCBatching
		want     [5][4]uint64
	}{
		{"direct", IKCBatching{}, [5][4]uint64{
			{38, 35, 2520101, 22},
			{38, 36, 2472786, 17},
			{47, 42, 3188105, 27},
			{39, 38, 2476207, 20},
			{33, 29, 2752640, 18},
		}},
		{"batched", IKCBatching{Exchange: true, Revoke: true}, [5][4]uint64{
			{38, 35, 2520121, 22},
			{38, 36, 2472805, 17},
			{47, 42, 3188129, 27},
			{39, 38, 2476224, 20},
			{33, 29, 2752655, 18},
		}},
	} {
		for i, want := range tc.want {
			seed := uint64(i + 1)
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				plan := &fault.Plan{Seed: seed, Drop: 0.05}
				s, failed := spanningChurn(t, Config{Kernels: 2, UserPEs: 4, Faults: plan, IKCBatching: tc.batching}, 200)
				if failed != 0 {
					t.Errorf("%d operations failed", failed)
				}
				st := s.TotalStats()
				got := [4]uint64{st.Retransmits, st.Recovered, uint64(st.RecoveryCycles), st.DupSuppressed}
				if got != want {
					t.Errorf("Retransmits, Recovered, RecoveryCycles, DupSuppressed = %v, want %v", got, want)
				}
				checkAudit(t, s)
			})
		}
	}
}
