package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// nestedChains builds — and leaves to the caller to run — capability chains
// that leave a kernel and come back, on cfg.Kernels kernels with n clients
// each: every client allocates a root, obtains the root of its counterpart
// in group g+1 and delegates what it obtained to a neighbour's counterpart in
// group g+2 — on two kernels the owner's own group (A → B → A), on three a
// ring (A → B → C → A). Then all roots are revoked at once — or, obtained,
// all the obtained capabilities, whose revoke also unlinks them from their
// parent on another kernel. returned counts the revokes that came back.
// (benchmark/README.md, "The nested-chain revoke finding".)
func nestedChains(t *testing.T, cfg Config, n int, obtained bool) (s *System, returned *int) {
	t.Helper()
	groups := cfg.Kernels
	cfg.UserPEs = groups * n
	s = MustNew(cfg)
	pes := s.UserPEs()
	for c, pe := range pes {
		if s.KernelOfPE(pe) != s.KernelOfPE(pes[c/n*n]) {
			t.Fatalf("PE groups are not %d blocks of %d", groups, n)
		}
	}
	hop := 2 // the delegate's group, relative to the client's
	if groups == 2 {
		hop = 1
	}
	vpes := make([]*VPE, len(pes))
	roots := make([]cap.Selector, len(pes))
	returned = new(int)
	// Two barriers: all roots exist, all chains stand.
	var arrived [2]int
	open := [2]*sim.Future[struct{}]{sim.NewFuture[struct{}](s.Eng), sim.NewFuture[struct{}](s.Eng)}
	barrier := func(p *sim.Proc, i int) {
		if arrived[i]++; arrived[i] == len(pes) {
			open[i].Complete(struct{}{})
		}
		open[i].Wait(p)
	}
	for c := range vpes {
		c := c
		g, i := c/n, c%n
		v, err := s.SpawnOn(pes[c], "client", func(v *VPE, p *sim.Proc) {
			root, err := v.AllocMem(p, 4096, dtu.PermRW)
			if err != nil {
				t.Error(err)
			}
			roots[c] = root
			barrier(p, 0)
			owner := (g+1)%groups*n + i
			sel, err := v.ObtainFrom(p, vpes[owner].ID, roots[owner])
			if err != nil {
				t.Error(err)
			}
			if _, err := v.DelegateTo(p, vpes[(g+hop)%groups*n+(i+1)%n].ID, sel); err != nil {
				t.Error(err)
			}
			barrier(p, 1)
			if obtained {
				root = sel
			}
			if err := v.Revoke(p, root); err != nil {
				t.Error(err)
			}
			*returned++
		})
		if err != nil {
			t.Fatal(err)
		}
		vpes[c] = v
	}
	return s, returned
}

// TestNestedChainRevoke: every root of a machine full of nested chains is
// revoked at once, and every revoke returns, leaving a machine that every
// audit finds clean and no kernel that declared a live peer dead — at any
// number of chains per kernel pair, on pairs and on rings, unbatched and
// batched, on the lossless fabric and in reliable mode, lossless or dropping
// 1%. 2 × 6 is the smallest machine on which revoke threads that waited for
// credits deadlocked: each kernel's two held a picked-up request and waited
// for a credit to forward it back, while the four requests queued behind
// them held all four credits of each direction (DESIGN.md "Deadlock freedom
// of revocation"). In reliable mode a credit once came back with the reply,
// not at pickup, so from 2 × 4 on the first-hop revokes held every credit
// their forwards needed until retransmit exhaustion declared the live peer
// dead. Revoking the obtained capabilities instead adds an unlink towards
// the parent's kernel, which a syscall thread may wait for while the
// forwards complete.
func TestNestedChainRevoke(t *testing.T) {
	for _, shape := range []struct{ kernels, n int }{
		{2, 3}, {2, 4}, {2, 5}, {2, 6}, {2, 8}, {2, 16}, {3, 4}, {3, 6}, {3, 16}, {4, 6}, {4, 16},
	} {
		for _, variant := range []struct {
			name              string
			obtained, batched bool
		}{{"", false, false}, {"/batched", false, true}, {"/obtained", true, false}, {"/obtained/batched", true, true}} {
			for _, fabric := range []struct {
				name   string
				faults *fault.Plan
			}{{"", nil}, {"/reliable", &fault.Plan{}}, {"/drop=0.01", &fault.Plan{Seed: 1, Drop: 0.01}}} {
				t.Run(fmt.Sprintf("%dx%d%s%s", shape.kernels, shape.n, variant.name, fabric.name), func(t *testing.T) {
					cfg := Config{Kernels: shape.kernels, IKCBatching: IKCBatching{Revoke: variant.batched}, Faults: fabric.faults}
					s, returned := nestedChains(t, cfg, shape.n, variant.obtained)
					defer s.Close()
					s.Run()
					chains := shape.kernels * shape.n
					if *returned != chains {
						t.Errorf("%d of %d revokes returned", *returned, chains)
					}
					if dead := s.TotalStats().DeadPeers; dead != 0 {
						t.Errorf("%d live peers declared dead", dead)
					}
					checkAudit(t, s)
					if allocs := testing.AllocsPerRun(10, func() { s.CheckQuiescent() }); allocs != 0 {
						t.Errorf("a clean CheckQuiescent allocates %v times, want 0", allocs)
					}
					left := 0 // revoking the roots takes everything; else the roots stay
					if variant.obtained {
						left = chains
					}
					if got := memCapsEverywhere(s); got != left {
						t.Errorf("%d memory capabilities left, want %d", got, left)
					}
				})
			}
		}
	}
}

// TestNestedChainRevokeReliableCreditCycle: the shapes around the reliable
// mode's old credit cycle, lossless and dropping 1%. When a reliable leg's
// credit came back with its reply rather than at pickup, the first-hop
// revokes of 2 × 4 held every credit their forwards needed, until retransmit
// exhaustion declared the live peer dead and each chain left an orphan on
// each kernel. With one credit rule on every fabric both shapes end clean.
func TestNestedChainRevokeReliableCreditCycle(t *testing.T) {
	for _, drop := range []float64{0, 0.01} {
		cfg := Config{Kernels: 2, Faults: &fault.Plan{Seed: 1, Drop: drop}}
		for _, n := range []int{3, 4} {
			t.Run(fmt.Sprintf("drop=%v/2x%d", drop, n), func(t *testing.T) {
				s, returned := nestedChains(t, cfg, n, false)
				defer s.Close()
				s.Run()
				if *returned != 2*n {
					t.Errorf("%d of %d revokes returned", *returned, 2*n)
				}
				if dead := s.TotalStats().DeadPeers; dead != 0 {
					t.Errorf("%d live peers declared dead", dead)
				}
				checkAudit(t, s)
				if got := memCapsEverywhere(s); got != 0 {
					t.Errorf("%d memory capabilities left, want 0", got)
				}
			})
		}
	}
}

// TestCreditsBalanceUnderDuplication: in reliable mode a leg may be picked up
// more than once — the fabric duplicates it, or a retransmit races the
// original — and a transmission may abort after its pickup; its credit comes
// back once all the same. Nested chains revoked over fabrics that duplicate
// every message, or drop, duplicate and delay them, unbatched and with
// exchange and revoke batching, end with every credit home: the audit
// (CheckQuiescent) reports a credit leaked or returned twice.
func TestCreditsBalanceUnderDuplication(t *testing.T) {
	for _, plan := range []fault.Plan{
		{Seed: 1, Dup: 1},
		{Seed: 1, Drop: 0.05, Dup: 0.05, Jitter: 200},
		{Seed: 1, Drop: 0.02, Dup: 0.5, Jitter: 500},
	} {
		for _, shape := range []struct{ kernels, n int }{{2, 3}, {2, 6}, {2, 16}, {3, 6}, {4, 16}} {
			for _, batched := range []bool{false, true} {
				name := fmt.Sprintf("drop=%v/dup=%v/jitter=%d/%dx%d/batched=%v", plan.Drop, plan.Dup, plan.Jitter, shape.kernels, shape.n, batched)
				t.Run(name, func(t *testing.T) {
					plan := plan
					cfg := Config{Kernels: shape.kernels, Faults: &plan,
						IKCBatching: IKCBatching{Exchange: batched, Revoke: batched}}
					s, returned := nestedChains(t, cfg, shape.n, false)
					defer s.Close()
					s.Run()
					if chains := shape.kernels * shape.n; *returned != chains {
						t.Errorf("%d of %d revokes returned", *returned, chains)
					}
					if dead := s.TotalStats().DeadPeers; dead != 0 {
						t.Errorf("%d live peers declared dead", dead)
					}
					checkAudit(t, s)
				})
			}
		}
	}
}

// TestKillKernelThreadsInEveryStage: Close unwinds kernel threads wherever
// their wait records have them parked — for a job, for a reply, a credit or
// a revocation (a nested-chain machine stopped mid-revoke), for the CPU, and
// in the middle of a job's owed time with the epilogue still to run (a loaded
// machine stopped mid-round) — and the engine goes back through the pool for
// the next machine.
func TestKillKernelThreadsInEveryStage(t *testing.T) {
	engines := sim.NewPool()
	stages := map[waitStage]bool{}
	note := func(s *System) {
		for _, k := range s.kernels {
			for _, pl := range [...]*pool{&k.syscallPool, &k.ikcPool, &k.revokePool, &k.completionPool} {
				if pl.k == nil {
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
	// Sixteen chains per kernel pair, stopped while the revokes are in
	// flight: syscall threads wait for their revocations and for credits,
	// revoke forwards wait as data.
	s, returned := nestedChains(t, Config{Kernels: 2}, 16, false)
	midRevoke := func() bool {
		var revocation, credit, deferred bool
		for _, f := range s.CheckQuiescent() {
			revocation = revocation || strings.HasSuffix(f, "syscall revoke, await-revocation")
			credit = credit || strings.HasSuffix(f, "syscall revoke, await-credit k0→k1")
			deferred = deferred || strings.HasSuffix(f, "forwarded revoke(s) waiting for a credit")
		}
		return revocation && credit && deferred
	}
	for slice := sim.Time(1); !midRevoke(); slice++ {
		if slice == 1000 || *returned > 0 {
			t.Fatal("no instant with revoke syscalls awaiting their revocation and a credit, and a forward deferred")
		}
		s.Eng.RunUntil(slice * 1000)
	}
	note(s)
	s.Close()
	if n := s.Eng.LiveProcs(); n != 0 {
		t.Fatalf("%d procs live after Close of the nested-chain machine", n)
	}
	for _, st := range []waitStage{stageEpilogue, stageJob, stageInner, stageCPU} {
		if !stages[st] {
			t.Errorf("no thread was parked in stage %d when its machine was closed", st)
		}
	}
}

// TestNestedChainRevokePeerCrashWhileDeferred: a kernel crashes at the first
// instant revokes are in flight both ways on a 2 × 8 nested-chain machine —
// each kernel has picked one up — and recovers. The blackhole keeps every credit it swallows, so revoke forwards
// wait for credits in both directions while it lasts. Crashed briefly, no
// kernel declares the other dead and no request fails unsent: the rejoin
// aborts only what travelled in the dead incarnation, and the deferred
// forwards leave with the credits those aborts return, stamped with the new
// incarnation. Crashed for long, each kernel declares the other dead and
// fails the forwards deferred toward it (markDead); the failures record
// orphan fixes like any revoke to an unreachable peer, and the rejoin
// replays them. Either way every revoke returns and the recovered machine is
// clean, with no memory capability left.
func TestNestedChainRevokePeerCrashWhileDeferred(t *testing.T) {
	const n = 8
	// revoking says both kernels have picked up a revoke request: each holds
	// a revoke-pool thread with a job.
	revoking := func(s *System) bool {
		for _, k := range s.kernels {
			th := k.revokePool.threads
			for th != nil && th.describe() == "" {
				th = th.next
			}
			if th == nil {
				return false
			}
		}
		return true
	}
	deferred := func(s *System) (dirs int) {
		for _, f := range s.CheckQuiescent() {
			if strings.HasSuffix(f, "forwarded revoke(s) waiting for a credit") {
				dirs++
			}
		}
		return dirs
	}
	// The first instant at which a fault-free reliable run has revokes in
	// flight both ways, picked up on each kernel.
	probe, _ := nestedChains(t, Config{Kernels: 2, Faults: &fault.Plan{}}, n, false)
	crashAt := sim.Time(0)
	for !revoking(probe) {
		if probe.Eng.Pending() == 0 {
			t.Fatal("no revoke was ever picked up on both kernels")
		}
		crashAt++
		probe.Eng.RunUntil(crashAt)
	}
	probe.Close()

	for _, tc := range []struct {
		name  string
		crash sim.Duration
		dead  bool
	}{
		{"brief", 100_000, false},
		{"declared-dead", 8_000_000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := &fault.Plan{Seed: 1, Kernels: []fault.KernelFault{{Kernel: 1, CrashAt: crashAt, RecoverAt: crashAt + tc.crash}}}
			s, returned := nestedChains(t, Config{Kernels: 2, Faults: plan}, n, false)
			defer s.Close()
			s.Eng.RunUntil(crashAt + 50_000)
			if got := deferred(s); got != 2 {
				t.Fatalf("forwards deferred in %d directions during the blackhole, want 2", got)
			}
			s.Run()
			if *returned != 2*n {
				t.Errorf("%d of %d revokes returned", *returned, 2*n)
			}
			st := s.TotalStats()
			if (st.DeadPeers > 0) != tc.dead || (st.FailFast > 0) != tc.dead || st.Rejoins != 1 {
				t.Errorf("%d death verdicts, %d requests failed unsent, %d rejoins; want both nonzero=%v, 1 rejoin",
					st.DeadPeers, st.FailFast, st.Rejoins, tc.dead)
			}
			checkAudit(t, s)
			if got := memCapsEverywhere(s); got != 0 {
				t.Errorf("%d memory capabilities survived", got)
			}
		})
	}
}

// TestOnwardDelegationStorm is the capstorm script with the hops it leaves
// out: 8 kernels × 8 clients, and in every epoch each client obtains two
// roots of its own group and two of others, delegates each obtained
// capability onward — to a client of the owner's group and to one of a third
// group — and, after a barrier, all clients revoke their roots at once. The
// trees so grow chains that leave a kernel and come back (A → B → A) or hop
// on (A → B → C). Over seeds 1–5, unbatched and with batched revoke, no
// operation fails and every audit finds the machine clean.
func TestOnwardDelegationStorm(t *testing.T) {
	const (
		kernels, perGroup, epochs = 8, 8, 3
		clients                   = kernels * perGroup
	)
	for seed := uint64(1); seed <= 5; seed++ {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/batched=%v", seed, batched), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(seed, 0))
				// member draws a client of group g other than the excluded ones.
				member := func(g int, not ...int) int {
					for {
						if c := g*perGroup + rng.IntN(perGroup); !slices.Contains(not, c) {
							return c
						}
					}
				}
				other := func(not ...int) int { // a group none of not is in
					for {
						g := rng.IntN(kernels)
						if !slices.ContainsFunc(not, func(c int) bool { return c/perGroup == g }) {
							return g
						}
					}
				}
				// script[e][c] lists client c's obtains in epoch e, each with
				// its two onward receivers.
				type hop struct{ from, ownGroup, third int }
				script := make([][][]hop, epochs)
				for e := range script {
					script[e] = make([][]hop, clients)
					for c := range script[e] {
						for i := 0; i < 4; i++ {
							from := member(c/perGroup, c)
							if i >= 2 {
								from = member(other(c), c)
							}
							script[e][c] = append(script[e][c], hop{
								from:     from,
								ownGroup: member(from/perGroup, from, c),
								third:    member(other(c, from), c),
							})
						}
					}
				}

				s := MustNew(Config{Kernels: kernels, UserPEs: clients, IKCBatching: IKCBatching{Revoke: batched}})
				defer s.Close()
				vpes := make([]*VPE, clients)
				roots := make([]cap.Selector, clients)
				arrived, gate := 0, sim.NewFuture[struct{}](s.Eng)
				barrier := func(p *sim.Proc) {
					if arrived++; arrived == clients {
						open := gate
						arrived, gate = 0, sim.NewFuture[struct{}](s.Eng)
						open.Complete(struct{}{})
						return
					}
					gate.Wait(p)
				}
				failed, revoked := 0, 0
				fail := func(err error) {
					if err != nil {
						failed++
						t.Error(err)
					}
				}
				for c := range vpes {
					c := c
					v, err := s.SpawnOn(s.UserPEs()[c], "client", func(v *VPE, p *sim.Proc) {
						for e := 0; e < epochs; e++ {
							root, err := v.AllocMem(p, 4096, dtu.PermRW)
							fail(err)
							roots[c] = root
							barrier(p)
							for _, h := range script[e][c] {
								sel, err := v.ObtainFrom(p, vpes[h.from].ID, roots[h.from])
								fail(err)
								for _, to := range []int{h.ownGroup, h.third} {
									_, err := v.DelegateTo(p, vpes[to].ID, sel)
									fail(err)
								}
							}
							barrier(p)
							fail(v.Revoke(p, root))
							revoked++
							barrier(p) // the next epoch's roots are new
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					vpes[c] = v
				}
				s.Run()
				if failed != 0 || revoked != epochs*clients {
					t.Errorf("%d operations failed, %d of %d revokes returned", failed, revoked, epochs*clients)
				}
				checkAudit(t, s)
				if n := memCapsEverywhere(s); n != 0 {
					t.Errorf("%d memory capabilities survived", n)
				}
			})
		}
	}
}
