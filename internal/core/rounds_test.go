package core

import (
	"fmt"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Isolated-rounds kernel-model tests. The rounds runtime's debug guard is
// structural: Domain.Post panics on any cross-domain edge shorter than the
// engine lookahead, and Engine.Schedule panics outside any domain while
// rounds are in flight. Driving the capability protocols to completion under
// SimModeRounds therefore IS the assertion that no zero-lookahead
// cross-domain edge survives in the kernel model — any such edge panics the
// run instead of silently collapsing the round structure.

// newRoundsSystem builds a rounds-mode machine (one event domain per kernel).
func newRoundsSystem(t *testing.T, kernels, userPEs int) *System {
	t.Helper()
	s := MustNew(Config{Kernels: kernels, UserPEs: userPEs, SimMode: SimModeRounds})
	t.Cleanup(s.Close)
	return s
}

// TestRoundsGuardExchange drives a spanning capability exchange through the
// isolated-rounds runtime: owner and requester sit in different kernel
// groups, so the obtain crosses domains — every leg must carry NoC latency
// or the Post guard panics.
func TestRoundsGuardExchange(t *testing.T) {
	s := newRoundsSystem(t, 2, 4)
	if s.Eng.Domains() != 2 {
		t.Fatalf("domains = %d, want one per kernel", s.Eng.Domains())
	}
	ready := sim.NewFuture[cap.Selector](s.Eng)
	var obtained bool
	owner, err := s.SpawnOn(s.UserPEs()[0], "owner", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("owner alloc: %v", err)
			return
		}
		ready.CompleteFrom(p, sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The last user PE belongs to the last kernel's group.
	reqPE := s.UserPEs()[len(s.UserPEs())-1]
	if s.KernelOfPE(reqPE).ID() == 0 {
		t.Fatal("requester not in a remote group; test would not span kernels")
	}
	if _, err := s.SpawnOn(reqPE, "requester", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		if _, err := v.ObtainFrom(p, owner.ID, sel); err != nil {
			t.Errorf("obtain: %v", err)
			return
		}
		obtained = true
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !obtained {
		t.Fatal("spanning obtain did not complete under rounds")
	}
	checkAllInvariants(t, s)
}

// TestRoundsGuardTreeRevoke builds a root capability with children obtained
// from every kernel group and revokes it — the revocation fan-out and the
// in-flight credit returns are all cross-domain under rounds.
func TestRoundsGuardTreeRevoke(t *testing.T) {
	const kernels = 4
	s := newRoundsSystem(t, kernels, kernels*2)
	byGroup := make(map[int][]int)
	for _, pe := range s.UserPEs() {
		g := s.KernelOfPE(pe).ID()
		byGroup[g] = append(byGroup[g], pe)
	}
	ready := sim.NewFuture[cap.Selector](s.Eng)
	var wg sim.WaitGroup
	wg.Bind(s.Eng)
	wg.Add(kernels - 1)
	var revoked bool
	root, err := s.SpawnOn(byGroup[0][0], "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("root alloc: %v", err)
			return
		}
		ready.CompleteFrom(p, sel)
		wg.Wait(p)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
			return
		}
		revoked = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g < kernels; g++ {
		if _, err := s.SpawnOn(byGroup[g][0], fmt.Sprintf("kid%d", g), func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
				t.Errorf("obtain: %v", err)
				return
			}
			wg.DoneFrom(p)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if !revoked {
		t.Fatal("spanning tree revoke did not complete under rounds")
	}
	checkAllInvariants(t, s)
}

// TestRoundsPartitionedDirectory registers a service in one kernel group and
// opens sessions from every other group: the lookups travel to the name's
// home kernel as IKC queries, get cached, and still resolve correctly.
func TestRoundsPartitionedDirectory(t *testing.T) {
	const kernels = 3
	s := newRoundsSystem(t, kernels, kernels*2)
	byGroup := make(map[int][]int)
	for _, pe := range s.UserPEs() {
		g := s.KernelOfPE(pe).ID()
		byGroup[g] = append(byGroup[g], pe)
	}
	svcReady := sim.NewFuture[struct{}](s.Eng)
	if _, err := s.SpawnOn(byGroup[0][0], "svc", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("svc alloc: %v", err)
			return
		}
		err = v.RegisterService(p, "echo", ServiceHandlers{
			Open: func(p *sim.Proc, clientVPE int, args any) SvcResult {
				return SvcResult{Ident: 7}
			},
			Obtain: func(p *sim.Proc, ident uint64, args any) SvcResult {
				return SvcResult{SrcSel: sel}
			},
		})
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		svcReady.CompleteFrom(p, struct{}{})
		v.ServeLoop(p)
	}); err != nil {
		t.Fatal(err)
	}
	sessions := make([]bool, kernels-1)
	for g := 1; g < kernels; g++ {
		g := g
		if _, err := s.SpawnOn(byGroup[g][0], fmt.Sprintf("client%d", g), func(v *VPE, p *sim.Proc) {
			svcReady.Wait(p)
			sess, err := v.CreateSession(p, "echo", nil)
			if err != nil {
				t.Errorf("client %d session: %v", g, err)
				return
			}
			if _, _, err := sess.Obtain(p, nil); err != nil {
				t.Errorf("client %d obtain: %v", g, err)
				return
			}
			// A second session exercises the registrar/cache hit path.
			if _, err := v.CreateSession(p, "echo", nil); err != nil {
				t.Errorf("client %d second session: %v", g, err)
				return
			}
			sessions[g-1] = true
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	for g := 1; g < kernels; g++ {
		if !sessions[g-1] {
			t.Errorf("client in group %d did not finish its sessions", g)
		}
	}
	// An unknown name must miss through the same partitioned path.
	s2 := newRoundsSystem(t, 2, 2)
	var missErr error
	if _, err := s2.SpawnOn(s2.UserPEs()[1], "misser", func(v *VPE, p *sim.Proc) {
		_, missErr = v.CreateSession(p, "no-such-service", nil)
	}); err != nil {
		t.Fatal(err)
	}
	s2.Run()
	if missErr == nil {
		t.Fatal("unknown service resolved under the partitioned directory")
	}
}

// TestRoundsDRAMRefill exhausts a kernel's pre-carved DRAM quota so its next
// allocation needs an IKC refill from kernel 0, and verifies both the refill
// and that allocations keep succeeding afterwards.
func TestRoundsDRAMRefill(t *testing.T) {
	// 32 KiB per mem PE: the carve splits the lower 16 KiB into 8 KiB per
	// kernel, so three 4 KiB allocations overflow kernel 1's quota.
	s := MustNew(Config{Kernels: 2, UserPEs: 4, MemPEs: 1, MemBytes: 32 << 10, SimMode: SimModeRounds})
	defer s.Close()
	var pe int
	for _, u := range s.UserPEs() {
		if s.KernelOfPE(u).ID() == 1 {
			pe = u
			break
		}
	}
	spansBefore := len(s.kernels[1].dramSpans)
	var allocs int
	if _, err := s.SpawnOn(pe, "hog", func(v *VPE, p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, err := v.AllocMem(p, 4096, dtu.PermRW); err != nil {
				t.Errorf("alloc %d: %v", i, err)
				return
			}
			allocs++
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if allocs != 3 {
		t.Fatalf("completed %d allocations, want 3", allocs)
	}
	if got := len(s.kernels[1].dramSpans); got <= spansBefore {
		t.Fatalf("kernel 1 has %d DRAM spans, want a refill beyond the initial %d", got, spansBefore)
	}
	if sent := s.kernels[1].Stats().IKCSent; sent == 0 {
		t.Fatal("refill produced no inter-kernel message")
	}
}

// benchFanout builds an exchange fan-out (one owner, one obtainer per other
// kernel group) in the given mode and runs it to completion.
func benchFanout(b *testing.B, kernels int, simMode string) {
	b.Helper()
	s := MustNew(Config{Kernels: kernels, UserPEs: kernels * 2, SimMode: simMode})
	defer s.Close()
	byGroup := make(map[int][]int)
	for _, pe := range s.UserPEs() {
		g := s.KernelOfPE(pe).ID()
		byGroup[g] = append(byGroup[g], pe)
	}
	ready := sim.NewFuture[cap.Selector](s.Eng)
	owner, err := s.SpawnOn(byGroup[0][0], "owner", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			b.Errorf("alloc: %v", err)
			return
		}
		ready.CompleteFrom(p, sel)
	})
	if err != nil {
		b.Fatal(err)
	}
	for g := 1; g < kernels; g++ {
		if _, err := s.SpawnOn(byGroup[g][0], fmt.Sprintf("c%d", g), func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, owner.ID, sel); err != nil {
				b.Errorf("obtain: %v", err)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	s.Run()
}

// BenchmarkKernelRounds compares a small multi-kernel exchange fan-out on
// the isolated-rounds runtime against the same fan-out on the sequential engine
// (allocs/op and wall-clock; the CI sim-bench smoke tracks both).
func BenchmarkKernelRounds(b *testing.B) {
	for _, mode := range []string{SimModeRounds, SimModeMerged} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFanout(b, 4, mode)
			}
		})
	}
}
