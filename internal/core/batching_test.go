package core

import (
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// buildFanout creates a root capability obtained by n VPEs spread over the
// system's kernels and then revokes the root, returning the system and the
// revocation duration.
func buildFanout(t *testing.T, cfg Config, n int) (*System, sim.Duration) {
	t.Helper()
	s := MustNew(cfg)
	t.Cleanup(s.Close)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	var wg sim.WaitGroup
	wg.Add(n)
	var revTime sim.Duration
	root, err := s.SpawnOn(s.userPEs[0], "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
		wg.Wait(p)
		t0 := p.Now()
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
		}
		revTime = p.Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.SpawnOn(s.userPEs[1+i], "kid", func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
				t.Errorf("obtain: %v", err)
			}
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	return s, revTime
}

// TestBatchedRevocationCorrect: with batching enabled, a cross-kernel tree
// revocation still removes every capability and keeps invariants.
func TestBatchedRevocationCorrect(t *testing.T) {
	const kids = 9
	s, _ := buildFanout(t, Config{Kernels: 4, UserPEs: kids + 7, IKCBatching: IKCBatching{Revoke: true}}, kids)
	if n := MemCapsEverywhere(s); n != 0 {
		t.Fatalf("%d mem caps survived batched revoke", n)
	}
	deleted := uint64(0)
	for ki := 0; ki < s.Kernels(); ki++ {
		deleted += s.Kernel(ki).Stats().CapsDeleted
	}
	if deleted != kids+1 {
		t.Fatalf("deleted = %d, want %d", deleted, kids+1)
	}
	checkAudit(t, s)
}

// TestBatchingReducesMessages: batching must cut the number of inter-kernel
// messages for a wide tree revocation.
func TestBatchingReducesMessages(t *testing.T) {
	const kids = 12
	run := func(batching bool) uint64 {
		s, _ := buildFanout(t, Config{Kernels: 4, UserPEs: kids + 7, IKCBatching: IKCBatching{Revoke: batching}}, kids)
		var sent uint64
		for ki := 0; ki < s.Kernels(); ki++ {
			sent += s.Kernel(ki).Stats().IKCSent
		}
		return sent
	}
	plain := run(false)
	batched := run(true)
	if batched >= plain {
		t.Fatalf("batching did not reduce messages: %d vs %d", batched, plain)
	}
}

// TestBatchingSpeedsUpTreeRevocation: the paper's expectation — batching
// improves wide-tree revocation latency.
func TestBatchingSpeedsUpTreeRevocation(t *testing.T) {
	const kids = 24
	_, plain := buildFanout(t, Config{Kernels: 4, UserPEs: kids + 7}, kids)
	_, batched := buildFanout(t, Config{Kernels: 4, UserPEs: kids + 7, IKCBatching: IKCBatching{Revoke: true}}, kids)
	if batched >= plain {
		t.Fatalf("batched revoke (%d cycles) not faster than plain (%d cycles)", batched, plain)
	}
}

// TestBatchedChainStillCorrect: batching must not break deep cross-kernel
// chains (each hop has exactly one remote child, so batches of size one).
func TestBatchedChainStillCorrect(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 10, IKCBatching: IKCBatching{Revoke: true}})
	defer s.Close()
	const chainLen = 6
	futs := make([]*sim.Future[cap.Selector], chainLen+1)
	for i := range futs {
		futs[i] = sim.NewFuture[cap.Selector](s.Eng)
	}
	vpes := make([]*VPE, chainLen+1)
	half := 5
	pe := func(i int) int {
		if i%2 == 0 {
			return s.userPEs[i/2]
		}
		return s.userPEs[half+i/2]
	}
	var err error
	done := sim.NewFuture[struct{}](s.Eng)
	vpes[0], err = s.SpawnOn(pe(0), "c0", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		futs[0].Complete(sel)
		done.Wait(p)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= chainLen; i++ {
		i := i
		vpes[i], err = s.SpawnOn(pe(i), "c", func(v *VPE, p *sim.Proc) {
			prev := futs[i-1].Wait(p)
			sel, e := v.ObtainFrom(p, vpes[i-1].ID, prev)
			if e != nil {
				t.Errorf("obtain %d: %v", i, e)
				return
			}
			futs[i].Complete(sel)
			if i == chainLen {
				done.Complete(struct{}{})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if n := MemCapsEverywhere(s); n != 0 {
		t.Fatalf("%d caps survived batched chain revoke", n)
	}
	checkAudit(t, s)
}
