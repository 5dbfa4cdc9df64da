package core

import (
	"testing"

	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// newTestSystem builds a small machine: kernels with userPEs user PEs.
func newTestSystem(t *testing.T, kernels, userPEs int) *System {
	t.Helper()
	s := MustNew(Config{Kernels: kernels, UserPEs: userPEs})
	t.Cleanup(s.Close)
	return s
}

// checkAllInvariants validates every kernel's mapping database.
func checkAllInvariants(t *testing.T, s *System) {
	t.Helper()
	for _, k := range s.kernels {
		if err := k.store.CheckLocalInvariants(); err != nil {
			t.Fatalf("kernel %d invariants: %v", k.id, err)
		}
	}
}

// checkNoLeaks asserts CheckLeaks and CheckQuiescent find nothing after the
// machine drained. deadKernels excuses kernels that crashed and never
// recovered.
func checkNoLeaks(t *testing.T, s *System, deadKernels ...int) {
	t.Helper()
	for _, p := range s.CheckLeaks(deadKernels...) {
		t.Errorf("leak: %s", p)
	}
	for _, p := range s.CheckQuiescent() {
		t.Errorf("not quiescent: %s", p)
	}
}

// totalCaps counts capabilities across all kernels.
func totalCaps(s *System) int {
	n := 0
	for _, k := range s.kernels {
		n += k.store.Len()
	}
	return n
}

func TestSpawnAndNoop(t *testing.T) {
	s := newTestSystem(t, 1, 2)
	ran := false
	_, err := s.Spawn("app", func(v *VPE, p *sim.Proc) {
		v.Noop(p)
		ran = true
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !ran {
		t.Fatal("program did not run")
	}
	if s.Kernel(0).Stats().Syscalls != 1 {
		t.Fatalf("syscalls = %d, want 1", s.Kernel(0).Stats().Syscalls)
	}
	if s.Now() == 0 {
		t.Fatal("syscall took no simulated time")
	}
}

func TestGroupAssignment(t *testing.T) {
	s := newTestSystem(t, 4, 8)
	for i, k := range s.kernels {
		g := k.Group()
		if len(g) != 2 {
			t.Fatalf("kernel %d group size = %d, want 2", i, len(g))
		}
		for _, pe := range g {
			if s.KernelOfPE(pe) != k {
				t.Fatalf("membership mismatch for PE %d", pe)
			}
		}
		// The table is static after boot: every kernel reads the machine's.
		if k.member != s.member {
			t.Fatalf("kernel %d holds a membership table of its own", i)
		}
	}
	// PEs 0-3 are the kernels, 4-11 the users in pairs, 12 the DRAM (kernel 0).
	want := []int{0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3, 0}
	if s.member.PEs() != len(want) {
		t.Fatalf("membership covers %d PEs, want %d", s.member.PEs(), len(want))
	}
	for pe, kernel := range want {
		if got := s.kernels[pe%4].member.KernelOfKey(ddl.NewKey(pe, 0, ddl.TypeMem, 1)); got != kernel {
			t.Errorf("KernelOfKey(PE %d) = %d, want %d", pe, got, kernel)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{Kernels: MaxKernels + 1, UserPEs: 1}); err == nil {
		t.Error("too many kernels accepted")
	}
	if _, err := NewSystem(Config{Kernels: 1, UserPEs: 0}); err == nil {
		t.Error("zero user PEs accepted")
	}
	if _, err := NewSystem(Config{Kernels: 1, UserPEs: MaxPEsPerKernel + 1}); err == nil {
		t.Error("oversized group accepted")
	}
}

func TestThreadPoolSizing(t *testing.T) {
	// Equation 1: V_group + K_max * M_inflight.
	s := newTestSystem(t, 2, 10)
	k := s.Kernel(0)
	want := len(k.Group()) + MaxKernels*MaxInflight
	if got := k.ThreadPoolSize(); got != want {
		t.Fatalf("ThreadPoolSize = %d, want %d", got, want)
	}
	if k.syscallPool.max != len(k.Group()) {
		t.Fatalf("syscall pool max = %d, want %d", k.syscallPool.max, len(k.Group()))
	}
	if k.ikcPool.max != MaxKernels*MaxInflight {
		t.Fatalf("ikc pool max = %d", k.ikcPool.max)
	}
	if k.revokePool.max != RevokeThreads {
		t.Fatalf("revoke pool max = %d, want %d", k.revokePool.max, RevokeThreads)
	}
}

func TestAllocAndDeriveMem(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	var derr error
	_, err := s.Spawn("app", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			derr = err
			return
		}
		child, err := v.DeriveMem(p, sel, 1024, 512, dtu.PermR)
		if err != nil {
			derr = err
			return
		}
		// Over-privileged derive must fail.
		if _, err := v.DeriveMem(p, child, 0, 16, dtu.PermRW); err == nil {
			derr = err
		}
		// Out-of-range derive must fail.
		if _, err := v.DeriveMem(p, sel, 4000, 512, dtu.PermR); err == nil {
			derr = err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if derr != nil {
		t.Fatal(derr)
	}
	checkAllInvariants(t, s)
}

func TestMemCapActivateAndAccess(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	var got []byte
	s.Spawn("app", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("AllocMem: %v", err)
			return
		}
		if err := v.Activate(p, sel, vpeFirstMemEP); err != nil {
			t.Errorf("Activate: %v", err)
			return
		}
		if err := v.DTU().WriteMem(p, vpeFirstMemEP, 10, []byte("hello")); err != nil {
			t.Errorf("WriteMem: %v", err)
			return
		}
		got, err = v.DTU().ReadMem(p, vpeFirstMemEP, 10, 5)
		if err != nil {
			t.Errorf("ReadMem: %v", err)
		}
	})
	s.Run()
	if string(got) != "hello" {
		t.Fatalf("read %q, want hello", got)
	}
}

// runExchange spawns an owner (allocates memory, parks) and a requester
// (obtains from the owner), placed by the caller, and returns the system.
func runExchange(t *testing.T, kernels, userPEs, ownerPE, reqPE int,
	after func(owner, req *VPE, ownerSel, reqSel cap.Selector, p *sim.Proc)) *System {
	t.Helper()
	s := newTestSystem(t, kernels, userPEs)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	owner, err := s.SpawnOn(ownerPE, "owner", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("owner alloc: %v", err)
			return
		}
		ready.Complete(sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SpawnOn(reqPE, "requester", func(v *VPE, p *sim.Proc) {
		ownerSel := ready.Wait(p)
		reqSel, err := v.ObtainFrom(p, owner.ID, ownerSel)
		if err != nil {
			t.Errorf("obtain: %v", err)
			return
		}
		if after != nil {
			after(owner, v, ownerSel, reqSel, p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s
}

func TestObtainLocal(t *testing.T) {
	s := runExchange(t, 1, 2, 1, 2, nil)
	k := s.Kernel(0)
	if k.Stats().Obtains != 1 {
		t.Fatalf("obtains = %d, want 1", k.Stats().Obtains)
	}
	// Owner cap has one child; requester cap points back.
	checkAllInvariants(t, s)
	if totalCaps(s) != 4 { // 2 VPE caps + owner mem + child mem
		t.Fatalf("total caps = %d, want 4", totalCaps(s))
	}
}

func TestObtainSpanning(t *testing.T) {
	// 2 kernels, 2 user PEs: PE 2 -> kernel 0, PE 3 -> kernel 1.
	s := runExchange(t, 2, 2, 2, 3, nil)
	k0, k1 := s.Kernel(0), s.Kernel(1)
	if k1.Stats().Obtains != 1 {
		t.Fatalf("requester kernel obtains = %d, want 1", k1.Stats().Obtains)
	}
	if k0.Stats().IKCReceived == 0 || k1.Stats().IKCSent == 0 {
		t.Fatal("no inter-kernel call recorded")
	}
	checkAllInvariants(t, s)
	// The child lives at kernel 1, the parent at kernel 0; links cross.
	var crossChild bool
	for _, key := range k0.store.Keys() {
		c := k0.store.Lookup(key)
		c.ForEachChild(func(ch ddl.Key) {
			if k0.member.KernelOfKey(ch) == 1 {
				crossChild = true
			}
		})
	}
	if !crossChild {
		t.Fatal("no cross-kernel child link found")
	}
}

func TestObtainDenied(t *testing.T) {
	s := newTestSystem(t, 1, 2)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	owner, _ := s.Spawn("owner", func(v *VPE, p *sim.Proc) {
		v.OnExchange = func(q ExchangeQuery) ExchangeAnswer { return ExchangeAnswer{Accept: false} }
		sel, _ := v.AllocMem(p, 64, dtu.PermR)
		ready.Complete(sel)
	})
	var got error
	s.Spawn("req", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		_, got = v.ObtainFrom(p, owner.ID, sel)
	})
	s.Run()
	if got != ErrDenied {
		t.Fatalf("err = %v, want ErrDenied", got)
	}
	checkAllInvariants(t, s)
}

func TestDelegateLocalAndSpanning(t *testing.T) {
	for name, cfg := range map[string]struct{ kernels, peA, peB int }{
		"local":    {1, 1, 2},
		"spanning": {2, 2, 3},
	} {
		t.Run(name, func(t *testing.T) {
			s := newTestSystem(t, cfg.kernels, 2)
			done := sim.NewFuture[error](s.Eng)
			b, err := s.SpawnOn(cfg.peB, "receiver", func(v *VPE, p *sim.Proc) {
				p.Park() // passive receiver
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.SpawnOn(cfg.peA, "delegator", func(v *VPE, p *sim.Proc) {
				sel, err := v.AllocMem(p, 128, dtu.PermRW)
				if err != nil {
					done.Complete(err)
					return
				}
				_, err = v.DelegateTo(p, b.ID, sel)
				done.Complete(err)
			})
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			if !done.Done() {
				t.Fatal("delegator did not finish")
			}
			if err := done.Wait(nil); err != nil {
				// Wait with nil proc is safe: future already complete.
				t.Fatalf("delegate: %v", err)
			}
			// The receiver must now own a mem cap child.
			kb := s.KernelOfPE(cfg.peB)
			caps := kb.store.VPECaps(b.ID)
			var memCaps int
			for _, c := range caps {
				if _, ok := c.Object.(*cap.MemObject); ok {
					memCaps++
					if c.Parent == 0 {
						t.Error("delegated cap has no parent link")
					}
				}
			}
			if memCaps != 1 {
				t.Fatalf("receiver mem caps = %d, want 1", memCaps)
			}
			checkAllInvariants(t, s)
		})
	}
}

func TestRevokeLocal(t *testing.T) {
	s := runExchange(t, 1, 2, 1, 2, func(owner, req *VPE, ownerSel, reqSel cap.Selector, p *sim.Proc) {
		// Requester revokes its obtained cap: only the child disappears.
		if err := req.Revoke(p, reqSel); err != nil {
			t.Errorf("revoke child: %v", err)
		}
	})
	k := s.Kernel(0)
	if k.Stats().CapsDeleted != 1 {
		t.Fatalf("deleted = %d, want 1", k.Stats().CapsDeleted)
	}
	checkAllInvariants(t, s)
	if totalCaps(s) != 3 {
		t.Fatalf("total caps = %d, want 3", totalCaps(s))
	}
}

func TestRevokeRecursiveSpanning(t *testing.T) {
	// Owner revokes its root: the remote child must disappear too.
	var ownerV *VPE
	var rootSel cap.Selector
	s := newTestSystem(t, 2, 2)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	obtained := sim.NewFuture[struct{}](s.Eng)
	ownerV, _ = s.SpawnOn(2, "owner", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		rootSel = sel
		ready.Complete(sel)
		obtained.Wait(p)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
		}
	})
	s.SpawnOn(3, "req", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		if _, err := v.ObtainFrom(p, ownerV.ID, sel); err != nil {
			t.Errorf("obtain: %v", err)
		}
		obtained.Complete(struct{}{})
	})
	s.Run()
	_ = rootSel
	// Both the root (kernel 0) and the child (kernel 1) must be gone.
	for ki, k := range s.kernels {
		for _, key := range k.store.Keys() {
			c := k.store.Lookup(key)
			if _, ok := c.Object.(*cap.MemObject); ok {
				t.Fatalf("kernel %d still holds mem cap %v", ki, c)
			}
		}
	}
	checkAllInvariants(t, s)
	if got := s.Kernel(0).Stats().CapsDeleted + s.Kernel(1).Stats().CapsDeleted; got != 2 {
		t.Fatalf("caps deleted = %d, want 2", got)
	}
}

// buildChain delegates a capability down a chain of VPEs and returns the
// system plus the VPEs. With alternate=true the VPEs alternate between two
// kernels (the paper's group-spanning chain).
func buildChain(t *testing.T, kernels, length int, alternate bool) (*System, []*VPE) {
	t.Helper()
	s := newTestSystem(t, kernels, length+1)
	vpes := make([]*VPE, length+1)
	futs := make([]*sim.Future[cap.Selector], length+1)
	for i := range futs {
		futs[i] = sim.NewFuture[cap.Selector](s.Eng)
	}
	pes := make([]int, length+1)
	for i := range pes {
		if alternate {
			// Alternate between the first PE of group 0 and group 1.
			half := (len(s.userPEs) + 1) / 2
			if i%2 == 0 {
				pes[i] = s.userPEs[i/2]
			} else {
				pes[i] = s.userPEs[half+i/2]
			}
		} else {
			pes[i] = s.userPEs[i]
		}
	}
	var err error
	vpes[0], err = s.SpawnOn(pes[0], "chain0", func(v *VPE, p *sim.Proc) {
		sel, e := v.AllocMem(p, 4096, dtu.PermRW)
		if e != nil {
			t.Errorf("alloc: %v", e)
			return
		}
		futs[0].Complete(sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= length; i++ {
		i := i
		vpes[i], err = s.SpawnOn(pes[i], "chain", func(v *VPE, p *sim.Proc) {
			prev := futs[i-1].Wait(p)
			sel, e := v.ObtainFrom(p, vpes[i-1].ID, prev)
			if e != nil {
				t.Errorf("chain obtain %d: %v", i, e)
				return
			}
			futs[i].Complete(sel)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s, vpes
}

func TestChainRevocation(t *testing.T) {
	for name, alternate := range map[string]bool{"local": false, "spanning": true} {
		t.Run(name, func(t *testing.T) {
			kernels := 1
			if alternate {
				kernels = 2
			}
			const chainLen = 8
			s, vpes := buildChain(t, kernels, chainLen, alternate)
			s.Run() // build the chain
			// Now revoke the root from VPE 0.
			root := s.KernelOfPE(vpes[0].PE).store.VPECaps(vpes[0].ID)
			var rootSel cap.Selector
			for _, c := range root {
				if _, ok := c.Object.(*cap.MemObject); ok {
					rootSel = c.Sel
				}
			}
			if rootSel == cap.NoSel {
				t.Fatal("root mem cap not found")
			}
			done := false
			s.Eng.Spawn("drive", func(p *sim.Proc) {
				// Drive the revoke through the root owner's program context:
				// issue the syscall directly from a fresh proc bound to vpe0.
				if err := vpes[0].Revoke(p, rootSel); err != nil {
					t.Errorf("revoke: %v", err)
				}
				done = true
			})
			s.Run()
			if !done {
				t.Fatal("revoke did not complete")
			}
			deleted := uint64(0)
			for _, k := range s.kernels {
				deleted += k.Stats().CapsDeleted
			}
			if deleted != chainLen+1 {
				t.Fatalf("deleted = %d, want %d", deleted, chainLen+1)
			}
			checkAllInvariants(t, s)
		})
	}
}

func TestTreeRevocationAcrossKernels(t *testing.T) {
	const kids = 12
	s := newTestSystem(t, 4, kids+1)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	var wg sim.WaitGroup
	wg.Add(kids)
	owner, _ := s.SpawnOn(s.userPEs[0], "root", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		ready.Complete(sel)
		wg.Wait(p)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
		}
	})
	for i := 0; i < kids; i++ {
		s.SpawnOn(s.userPEs[i+1], "kid", func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, owner.ID, sel); err != nil {
				t.Errorf("obtain: %v", err)
			}
			wg.Done()
		})
	}
	s.Run()
	deleted := uint64(0)
	for _, k := range s.kernels {
		deleted += k.Stats().CapsDeleted
	}
	if deleted != kids+1 {
		t.Fatalf("deleted = %d, want %d", deleted, kids+1)
	}
	checkAllInvariants(t, s)
}

func TestPermStringsAndErrno(t *testing.T) {
	if OK.Err() != nil {
		t.Error("OK.Err() != nil")
	}
	if ErrNoSuchCap.Err() == nil {
		t.Error("ErrNoSuchCap.Err() == nil")
	}
	for e := OK; e <= ErrPeerDead; e++ {
		if e.Error() == "unknown error" {
			t.Errorf("errno %d has no message", e)
		}
	}
}
