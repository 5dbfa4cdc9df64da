package core

import (
	"errors"
	"math"
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

// checkAudit asserts that System.Audit finds nothing on the drained
// machine: it is quiescent, leaks nothing and every live kernel's mapping
// database holds its invariants. deadKernels excuses kernels that crashed
// and never recovered.
func checkAudit(t *testing.T, s *System, deadKernels ...int) {
	t.Helper()
	for _, f := range s.Audit(deadKernels...) {
		t.Errorf("audit: %s", f)
	}
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
		g := k.group
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
	// A count near MaxInt is refused: it must not wrap the per-kernel or
	// the total sum into a size that passes.
	for _, cfg := range []Config{
		{Kernels: 3, UserPEs: math.MaxInt - 1},
		{UserPEs: math.MaxInt - 1, RelaxLimits: true},
		{Kernels: 2, UserPEs: 1, MemPEs: math.MaxInt},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepts %+v", cfg)
		}
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("NewSystem accepts %+v", cfg)
		}
	}
}

func TestThreadPoolSizing(t *testing.T) {
	// Equation 1: V_group + K_max * M_inflight.
	s := newTestSystem(t, 2, 10)
	k := s.Kernel(0)
	want := len(k.group) + MaxKernels*MaxInflight
	if got := k.syscallPool.max + k.ikcPool.max; got != want {
		t.Fatalf("syscall + ikc threads = %d, want %d", got, want)
	}
	if k.syscallPool.max != len(k.group) {
		t.Fatalf("syscall pool max = %d, want %d", k.syscallPool.max, len(k.group))
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
	checkAudit(t, s)
}

// TestMemCapActivateAndAccess: an endpoint activated from a memory
// capability admits accesses inside the capability's region with its
// permissions, and no others.
func TestMemCapActivateAndAccess(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	done := false
	s.Spawn("app", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("AllocMem: %v", err)
			return
		}
		if err := v.Access(p, vpeFirstMemEP, 10, 5, dtu.PermW); !errors.Is(err, dtu.ErrBadEndpoint) {
			t.Errorf("Access before Activate = %v, want %v", err, dtu.ErrBadEndpoint)
		}
		if err := v.Activate(p, sel, vpeFirstMemEP); err != nil {
			t.Errorf("Activate: %v", err)
			return
		}
		if err := v.Access(p, vpeFirstMemEP, 10, 5, dtu.PermW); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := v.Access(p, vpeFirstMemEP, 10, 5, dtu.PermR); err != nil {
			t.Errorf("read: %v", err)
		}
		if err := v.Access(p, vpeFirstMemEP, 4090, 8, dtu.PermR); !errors.Is(err, dtu.ErrOutOfBounds) {
			t.Errorf("read past the region = %v, want %v", err, dtu.ErrOutOfBounds)
		}
		done = true
	})
	s.Run()
	if !done {
		t.Fatal("the app never finished")
	}
	checkAudit(t, s)
}

// TestAccessCostsTransfer: a checked access takes exactly the time of a
// transfer of the same size, and a refused one takes none.
func TestAccessCostsTransfer(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	const n = 1000
	want := sim.Duration(n*dataCyclesPerByte) + sim.Duration(n*s.Cost.LinkCyclesPerByte)
	var transfer, access, refused sim.Duration
	s.Spawn("app", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermR)
		if err != nil {
			t.Errorf("AllocMem: %v", err)
			return
		}
		if err := v.Activate(p, sel, vpeFirstMemEP); err != nil {
			t.Errorf("Activate: %v", err)
			return
		}
		t0 := p.Now()
		v.Transfer(p, n)
		t1 := p.Now()
		if err := v.Access(p, vpeFirstMemEP, 0, n, dtu.PermR); err != nil {
			t.Errorf("Access: %v", err)
		}
		t2 := p.Now()
		if err := v.Access(p, vpeFirstMemEP, 0, n, dtu.PermW); !errors.Is(err, dtu.ErrNoPerm) {
			t.Errorf("write to a read-only region = %v, want %v", err, dtu.ErrNoPerm)
		}
		transfer, access, refused = t1-t0, t2-t1, p.Now()-t2
	})
	s.Run()
	if transfer != want || access != want || refused != 0 {
		t.Fatalf("transfer %d, access %d, refused access %d cycles; want %d, %d, 0",
			transfer, access, refused, want, want)
	}
	checkAudit(t, s)
}

// TestRevokeInvalidatesActivatedEndpoint: a child activates a memory
// endpoint from an obtained capability and reads through it; once the owner
// revokes the parent, the child's endpoint is invalid and the read fails —
// within one PE group and across two.
func TestRevokeInvalidatesActivatedEndpoint(t *testing.T) {
	for _, tc := range []struct {
		name             string
		kernels          int
		ownerPE, childPE int
	}{
		{"local", 1, 1, 2},
		{"spanning", 2, 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSystem(t, tc.kernels, 2)
			ready := sim.NewFuture[cap.Selector](s.Eng)
			activated := sim.NewFuture[struct{}](s.Eng)
			revoked := sim.NewFuture[struct{}](s.Eng)
			owner, err := s.SpawnOn(tc.ownerPE, "owner", func(v *VPE, p *sim.Proc) {
				sel, err := v.AllocMem(p, 4096, dtu.PermRW)
				if err != nil {
					t.Errorf("AllocMem: %v", err)
					return
				}
				ready.Complete(sel)
				activated.Wait(p)
				if err := v.Revoke(p, sel); err != nil {
					t.Errorf("Revoke: %v", err)
				}
				revoked.Complete(struct{}{})
			})
			if err != nil {
				t.Fatal(err)
			}
			checked := false
			if _, err := s.SpawnOn(tc.childPE, "child", func(v *VPE, p *sim.Proc) {
				sel, err := v.ObtainFrom(p, owner.ID, ready.Wait(p))
				if err != nil {
					t.Errorf("ObtainFrom: %v", err)
					return
				}
				if err := v.Activate(p, sel, vpeFirstMemEP); err != nil {
					t.Errorf("Activate: %v", err)
					return
				}
				if err := v.Access(p, vpeFirstMemEP, 0, 16, dtu.PermR); err != nil {
					t.Errorf("read before revoke: %v", err)
				}
				activated.Complete(struct{}{})
				revoked.Wait(p)
				if err := v.Access(p, vpeFirstMemEP, 0, 16, dtu.PermR); !errors.Is(err, dtu.ErrBadEndpoint) {
					t.Errorf("read after revoke = %v, want %v", err, dtu.ErrBadEndpoint)
				}
				if kind := v.DTU().EpKindOf(vpeFirstMemEP); kind != dtu.EpInvalid {
					t.Errorf("endpoint kind after revoke = %v, want %v", kind, dtu.EpInvalid)
				}
				checked = true
			}); err != nil {
				t.Fatal(err)
			}
			s.Run()
			if !checked {
				t.Fatal("the child never got past the revocation")
			}
			checkAudit(t, s)
		})
	}
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

// TestCheckLeaksFindsLostLocalChild: a capability whose child is gone from
// its own kernel's table is a dangling link. The table's own check cannot
// tell a lost key of its own from a key another kernel holds, so CheckLeaks,
// which resolves every link at its owner, must report it.
func TestCheckLeaksFindsLostLocalChild(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	var child cap.Selector
	v, err := s.Spawn("app", func(v *VPE, p *sim.Proc) {
		root, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err == nil {
			child, err = v.DeriveMem(p, root, 0, 64, dtu.PermR)
		}
		if err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if leaks := s.CheckLeaks(); len(leaks) != 0 {
		t.Fatalf("leaks before the child is lost: %q", leaks)
	}
	k := s.kernels[0]
	c := k.store.LookupSel(v.ID, child)
	if c == nil {
		t.Fatal("the derived capability is not in the table")
	}
	k.store.Remove(c.Key)
	if err := k.store.CheckLocalInvariants(); err != nil {
		t.Fatalf("the table's own check found the lost child: %v", err)
	}
	if leaks := s.CheckLeaks(); len(leaks) != 1 {
		t.Errorf("CheckLeaks = %q, want the one dangling link", leaks)
	}
}

// TestRunForStopsShortOfAGap pins what RunFor does (its doc): over an empty
// gap wider than d it runs nothing and leaves the clock where it was, so a
// loop of RunFor calls never reaches an event past the gap; an absolute
// bound, stepped with Eng.RunUntil, crosses it.
func TestRunForStopsShortOfAGap(t *testing.T) {
	s := newTestSystem(t, 1, 1)
	const gap = 1000
	fired := false
	s.Eng.Schedule(gap, func() { fired = true })
	for i := 0; i < 3; i++ {
		s.RunFor(gap / 2)
		if fired || s.Now() != 0 {
			t.Fatalf("RunFor(%d) #%d: fired %v, clock at %d; want nothing run and the clock at 0", gap/2, i+1, fired, s.Now())
		}
	}
	for bound := sim.Time(0); !fired; bound += gap / 2 {
		s.Eng.RunUntil(bound)
	}
	if s.Now() != gap {
		t.Fatalf("stepping an absolute bound ran the event with the clock at %d, want %d", s.Now(), gap)
	}
}
