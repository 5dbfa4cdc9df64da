package core

import (
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// nestedChains builds, on two kernels with n clients each, the capability
// chains that leave a kernel and come back: every client allocates a root,
// obtains the root of its counterpart in the other group (A → B) and
// delegates what it obtained to a neighbour's counterpart — a client of the
// owner's own group (B → A again). Then all 2n roots are revoked at once. It
// returns the machine, run dry, and how many of the revokes returned.
// (benchmark/README.md, "The nested-chain revoke finding".)
func nestedChains(t *testing.T, n int) (s *System, returned int) {
	t.Helper()
	s = MustNew(Config{Kernels: 2, UserPEs: 2 * n})
	pes := s.UserPEs()
	if s.KernelOfPE(pes[0]) == s.KernelOfPE(pes[n]) || s.KernelOfPE(pes[0]) != s.KernelOfPE(pes[n-1]) {
		t.Fatalf("PE groups are not [0..%d | %d..%d]", n-1, n, 2*n-1)
	}
	vpes := make([]*VPE, 2*n)
	roots := make([]cap.Selector, 2*n)
	// Two barriers: all roots exist, all chains stand.
	var arrived [2]int
	open := [2]*sim.Future[struct{}]{sim.NewFuture[struct{}](s.Eng), sim.NewFuture[struct{}](s.Eng)}
	barrier := func(p *sim.Proc, i int) {
		if arrived[i]++; arrived[i] == 2*n {
			open[i].Complete(struct{}{})
		}
		open[i].Wait(p)
	}
	for c := range vpes {
		c := c
		v, err := s.SpawnOn(pes[c], "client", func(v *VPE, p *sim.Proc) {
			root, err := v.AllocMem(p, 4096, dtu.PermRW)
			if err != nil {
				t.Error(err)
			}
			roots[c] = root
			barrier(p, 0)
			other := (c/n + 1) % 2
			owner := other*n + c%n
			sel, err := v.ObtainFrom(p, vpes[owner].ID, roots[owner])
			if err != nil {
				t.Error(err)
			}
			if _, err := v.DelegateTo(p, vpes[other*n+(c+1)%n].ID, sel); err != nil {
				t.Error(err)
			}
			barrier(p, 1)
			if err := v.Revoke(p, root); err != nil {
				t.Error(err)
			}
			returned++
		})
		if err != nil {
			t.Fatal(err)
		}
		vpes[c] = v
	}
	s.Run()
	return s, returned
}

// TestNestedChainRevoke: up to MaxInflight+1 concurrent nested-chain revokes
// per kernel pair complete, and leave a machine that every audit finds clean.
func TestNestedChainRevoke(t *testing.T) {
	for _, n := range []int{4, 5} {
		s, returned := nestedChains(t, n)
		if returned != 2*n {
			t.Errorf("2 x %d: %d of %d revokes returned", n, returned, 2*n)
		}
		checkNoLeaks(t, s) // and quiescent
		if allocs := testing.AllocsPerRun(10, func() { s.CheckQuiescent() }); allocs != 0 {
			t.Errorf("a clean CheckQuiescent allocates %v times, want 0", allocs)
		}
		checkAllInvariants(t, s)
		s.Close()
	}
}

// TestNestedChainRevokeDeadlocksAtSixPerGroup asserts what is true TODAY and
// is a BUG (ROADMAP "Fix the concurrent-revoke credit deadlock"): at six
// clients per group — one past MaxInflight+1 — none of the twelve revokes
// returns. The run drains without an error; what this test pins is that the
// machine now says why, in its own words:
//
//	k0/sys1..6: syscall revoke, await-revocation         (and k1's six)
//	k0/rev1..2: request revoke from k1, await-credit k0→k1  (and k1's two)
//	k0/rev: 4 job(s) queued behind a full pool           (and k1's four)
//	k0→k1: 4 of 4 in-flight credits not returned         (and k1→k0)
//
// Each kernel sent six revoke requests to the other. Two were picked up by
// the two revoke threads, which returned their credits, marked, and now must
// forward the revoke back (the chain comes home) — and wait for a credit to
// do so. The other four sit in the pool's queue behind them, and a queued
// request is what holds a credit: all four of each direction. The threads
// that would free the credits wait for the credits. A cycle, printed; the
// syscall threads behind it wait for revocations that cannot finish. The fix
// flips this test to "12 of 12 return, CheckQuiescent empty".
func TestNestedChainRevokeDeadlocksAtSixPerGroup(t *testing.T) {
	const n = 6
	s, returned := nestedChains(t, n)
	defer s.Close()
	if returned != 0 {
		t.Fatalf("%d of %d revokes returned: if the credit deadlock is fixed, this test asserts the opposite now", returned, 2*n)
	}
	findings := s.CheckQuiescent()
	count := func(all ...string) (c int) {
	next:
		for _, f := range findings {
			for _, sub := range all {
				if !strings.Contains(f, sub) {
					continue next
				}
			}
			c++
		}
		return c
	}
	for _, want := range []struct {
		n   int
		sub []string
	}{
		{n, []string{"k0/sys", "syscall revoke, await-revocation"}},
		{n, []string{"k1/sys", "syscall revoke, await-revocation"}},
		{RevokeThreads, []string{"k0/rev", "request revoke from k1, await-credit k0→k1"}},
		{RevokeThreads, []string{"k1/rev", "request revoke from k0, await-credit k1→k0"}},
		{1, []string{"k0/rev: 4 job(s) queued behind a full pool"}},
		{1, []string{"k1/rev: 4 job(s) queued behind a full pool"}},
		{1, []string{"k0→k1: 4 of 4 in-flight credits not returned"}},
		{1, []string{"k1→k0: 4 of 4 in-flight credits not returned"}},
		{2 * n, []string{"syscall revoke has not returned"}},
		{2 * n, []string{"receive slot(s) of endpoint"}}, // the twelve syscall messages
	} {
		if got := count(want.sub...); got != want.n {
			t.Errorf("%d findings match %q, want %d", got, want.sub, want.n)
		}
	}
	if t.Failed() {
		t.Logf("CheckQuiescent:\n  %s", strings.Join(findings, "\n  "))
	}
	// Nothing is lost or half-done — the capabilities all stand, marked.
	for _, l := range s.CheckLeaks() {
		t.Errorf("leak: %s", l)
	}
	checkAllInvariants(t, s)
}

// TestKillKernelThreadsInEveryStage: Close unwinds kernel threads wherever
// their wait records have them parked — for a job, for a reply, a credit or
// a revocation (the deadlocked machine above), for the CPU, and in the middle
// of a job's owed time with the epilogue still to run (a loaded machine
// stopped mid-round) — and the engine goes back through the pool for the
// next machine.
func TestKillKernelThreadsInEveryStage(t *testing.T) {
	engines := sim.NewPool()
	stages := map[waitStage]bool{}
	note := func(s *System) {
		for _, k := range s.kernels {
			for _, pl := range [...]*pool{k.syscallPool, k.ikcPool, k.revokePool, k.completionPool} {
				if pl == nil {
					continue
				}
				for th := pl.threads; th != nil; th = th.next {
					stages[th.stage] = true
				}
			}
		}
	}
	for round := 0; round < 2; round++ {
		eng := engines.Get()
		s := MustNew(Config{Kernels: 1, UserPEs: loadedClients, Engine: eng})
		for _, pe := range s.UserPEs() {
			if _, err := s.SpawnOn(pe, "client", func(v *VPE, p *sim.Proc) {
				root, _ := v.AllocMem(p, 1<<20, dtu.PermRW)
				for {
					if _, err := v.DeriveMem(p, root, 0, 4096, dtu.PermR); err != nil {
						t.Error(err)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.RunFor(1_000_000) // mid-storm: one thread settling, the rest queued for the CPU
		note(s)
		s.Close()
		if n := eng.LiveProcs(); n != 0 {
			t.Fatalf("round %d: %d procs live after Close of the loaded machine", round, n)
		}
		engines.Put(eng) // the second round builds on it again
	}
	s, _ := nestedChains(t, 6)
	note(s)
	s.Close()
	if n := s.Eng.LiveProcs(); n != 0 {
		t.Fatalf("%d procs live after Close of the deadlocked machine", n)
	}
	for _, st := range []waitStage{stageEpilogue, stageJob, stageInner, stageCPU} {
		if !stages[st] {
			t.Errorf("no thread was parked in stage %d when its machine was closed", st)
		}
	}
}
