package core_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/script"
	"repro/internal/sim"
)

// This file plays the capability protocol's tests as scripts
// (internal/script): the exchange and revocation cases, the reliable layer
// and the rejoin, the nested chains and the paper's Table 2 — the
// interference analysis of overlapping capability-modifying operations —
// one row per cell:
//
//	              2nd: Obtain      Delegate        Revoke/Crash
//	1st: Obtain   Serialized       Serialized      Orphaned
//	     Delegate Serialized       Serialized      Invalid
//	     Revoke   Pointless        Pointless       Incomplete
//
// A case states its machine, its script and its outcomes, so it can be
// replayed on another machine or under another fault plan unchanged.

// Shorthands for the ops of the scripts.
const (
	alloc, derive, obtain, delegate = script.Alloc, script.Derive, script.Obtain, script.Delegate
	revoke, exit, kill, wait        = script.Revoke, script.Exit, script.Kill, script.Wait
	sleepUntil, sleep               = script.SleepUntil, script.Sleep
)

// checkAudit asserts that System.Audit finds nothing on the drained
// machine: it is quiescent, leaks nothing and every live kernel's mapping
// database holds its invariants. A machine the audit finds clean also has
// every recycled record back (System.HeldRecords).
func checkAudit(t *testing.T, s *core.System) {
	t.Helper()
	findings := s.Audit()
	for _, f := range findings {
		t.Errorf("audit: %s", f)
	}
	if len(findings) > 0 {
		return
	}
	for kind, n := range s.HeldRecords() {
		if n != 0 {
			t.Errorf("%d %s record(s) still held on a drained machine", n, kind)
		}
	}
}

// errAny is the outcome of an op that must fail, no matter how.
var errAny = errors.New("any error")

// outcomes asserts that every op returned: those in fails with their error,
// all others without one.
func outcomes(t *testing.T, recs [][]script.Record, fails map[script.Ref]error) {
	t.Helper()
	for v, rs := range recs {
		for i, r := range rs {
			want := fails[script.Ref{VPE: v, Op: i}]
			if r.End == 0 || r.Err != want && (want != errAny || r.Err == nil) {
				t.Errorf("op %d.%d returned %v (ended at %d), want %v", v, i, r.Err, r.End, want)
			}
		}
	}
}

// A row is one protocol case: the machine, the script over the machine's
// user PEs grouped by kernel (script.Groups) with its exchanges made
// directly or through a session, an optional hook that arms an injector or
// checks mid-run (script.Run's onStart), and its outcomes: the ops that
// fail (outcomes), whether every memory capability is gone, and what check
// asserts. The audit of the drained machine must be clean.
type row struct {
	cfg    core.Config
	script func(g [][]int, session bool) script.Script
	hook   func(t *testing.T, sys *core.System) func(vpe, op int)
	fails  map[script.Ref]error
	gone   bool
	check  func(t *testing.T, sys *core.System, recs [][]script.Record)
}

func (r row) play(t *testing.T, session bool) {
	t.Helper()
	sys := core.MustNew(r.cfg)
	t.Cleanup(sys.Close)
	var onStart func(vpe, op int)
	if r.hook != nil {
		onStart = r.hook(t, sys)
	}
	recs := script.Run(sys, r.script(script.Groups(sys), session), onStart)
	outcomes(t, recs, r.fails)
	if n := core.MemCapsEverywhere(sys); r.gone && n != 0 {
		t.Errorf("%d mem caps survived", n)
	}
	if r.check != nil {
		r.check(t, sys, recs)
	}
	checkAudit(t, sys)
}

// forVariants runs body for the exchanges made directly between two VPEs
// (the partner consents through OnExchange) and session-scoped (the partner
// is a service and consents in its handlers). Both compose the same
// protocol halves (exchange.go), so every case must hold for both.
func forVariants(t *testing.T, body func(t *testing.T, session bool)) {
	for _, v := range []struct {
		name    string
		session bool
	}{{"direct", false}, {"session", true}} {
		t.Run(v.name, func(t *testing.T) { body(t, v.session) })
	}
}

// partner is op as the exchange partner of a variant: a service or a
// direct partner.
func partner(session bool, op script.Op) script.Op {
	op.Kind = script.Consent
	if session {
		op.Kind = script.Serve
	}
	return op
}

// --- Table 2 -------------------------------------------------------------

// TestInterferenceSerialized: overlapping obtains of the same capability
// serialize at the owning kernel; both succeed and the tree is consistent.
func TestInterferenceSerialized(t *testing.T) {
	req := []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain}}
	row{
		cfg: core.Config{Kernels: 2, UserPEs: 4},
		script: func(g [][]int, _ bool) script.Script {
			return script.Script{
				{PE: g[0][0], Ops: []script.Op{{Kind: alloc, Latch: 1}}},
				{PE: g[0][1], Ops: req}, // one local, one remote requester
				{PE: g[1][0], Ops: req},
			}
		},
		check: func(t *testing.T, sys *core.System, recs [][]script.Record) {
			if c := sys.Kernel(0).Store().LookupSel(sys.VPEs()[0].ID, recs[0][0].Sel); c == nil || c.NumChildren() != 2 {
				t.Errorf("the owner's capability %v does not list exactly two children", c)
			}
		},
	}.play(t, false)
}

// killedExchange: VPE 2 kills the VPE that receives the capability of an
// exchange — the requester of an obtain, the receiver of a delegate — once
// the partner is asked for consent, which is inside the exchange's
// inter-kernel window when the two are in different groups and the
// kernel's only preemption point when they share one. pes places the
// partner, its peer and the killer. Nothing may be inserted for the dead
// VPE.
func killedExchange(cfg core.Config, delegated bool, pes func(g [][]int) (int, int, int), check func(t *testing.T, sys *core.System)) row {
	dead, exchange := 1, script.Ref{VPE: 1, Op: 1}
	if delegated {
		dead, exchange = 0, script.Ref{VPE: 1, Op: 2}
	}
	return row{
		cfg: cfg,
		script: func(g [][]int, session bool) script.Script {
			partnerPE, peer, killer := pes(g)
			consent := partner(session, script.Op{Latch: 1, Asked: 2})
			sc := script.Script{
				{PE: partnerPE, Ops: []script.Op{{Kind: alloc}, consent}}, // hands out its root
				{PE: peer, Ops: []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain, Session: session}}},
				{PE: killer, Ops: []script.Op{{Kind: wait, Latch: 2}, {Kind: kill, To: dead}}},
			}
			if delegated { // the peer pushes a root of its own instead
				sc[0].Ops = []script.Op{consent}
				sc[1].Ops = []script.Op{{Kind: alloc}, {Kind: wait, Latch: 1}, {Kind: delegate, Ref: script.Ref{VPE: 1}, Session: session}}
			}
			return sc
		},
		fails: map[script.Ref]error{exchange: core.ErrVPEGone},
		check: func(t *testing.T, sys *core.System, _ [][]script.Record) {
			if n := core.OwnedMemCaps(sys, sys.VPEs()[dead].ID); n != 0 {
				t.Errorf("the dead VPE owns %d mem caps", n)
			}
			if check != nil {
				check(t, sys)
			}
		},
	}
}

// orphaned: the requester of a group-spanning obtain is killed while the
// inter-kernel call is in flight. The owner's tree briefly holds an
// orphaned child, which the requester's kernel removes via a notification
// (paper §4.3.2, case 1).
func orphaned(b core.IKCBatching) row {
	return killedExchange(core.Config{Kernels: 2, UserPEs: 3, IKCBatching: b}, false,
		func(g [][]int) (int, int, int) { return g[0][0], g[1][0], g[0][1] },
		func(t *testing.T, sys *core.System) {
			k0 := sys.Kernel(0).Store()
			for _, key := range k0.Keys() {
				if c := k0.Lookup(key); c.NumChildren() != 0 {
					if _, mem := c.Object.(*cap.MemObject); mem {
						t.Errorf("orphaned child left behind: %v", c)
					}
				}
			}
			if sys.TotalStats().Orphans == 0 {
				t.Error("orphan cleanup not recorded")
			}
		})
}

// TestInterferenceOrphaned: the requester of a group-spanning obtain is
// killed while the inter-kernel call is in flight.
func TestInterferenceOrphaned(t *testing.T) {
	forVariants(t, orphaned(core.IKCBatching{}).play)
}

// TestInterferenceOrphanedBatched: the same race with the obtain riding
// the batched transport — aggregation delays the request but must not
// change the outcome.
func TestInterferenceOrphanedBatched(t *testing.T) {
	forVariants(t, orphaned(core.IKCBatching{Exchange: true, ServiceQuery: true}).play)
}

// TestInterferenceKilledDuringLocalConsent: within one group the kernel runs
// both halves of an exchange itself, and the consent is its only preemption
// point. A VPE killed during it — the requester of an obtain, the receiver of
// a delegate — must get nothing inserted.
func TestInterferenceKilledDuringLocalConsent(t *testing.T) {
	local := func(g [][]int) (int, int, int) { return g[0][0], g[0][1], g[0][2] }
	forVariants(t, func(t *testing.T, session bool) {
		for _, delegated := range []bool{false, true} {
			name := map[bool]string{false: "obtain", true: "delegate"}[delegated]
			t.Run(name, func(t *testing.T) {
				killedExchange(core.Config{Kernels: 1, UserPEs: 3}, delegated, local, nil).play(t, session)
			})
		}
	})
}

// invalid: the delegator's capability is revoked while a group-spanning
// delegate is in flight — the receiver's consent sets the root's revoke
// off, and a decision time of 50 000 cycles lets it win. Without the
// two-way handshake the receiver would keep a live capability with no
// parent link; the handshake must abort the delegation instead (paper
// §4.3.2, case 2), and the whole subtree must be gone everywhere — the
// receiver's kernel included.
func invalid(b core.IKCBatching) row {
	cost := core.DefaultCostModel()
	cost.VPEAccept = 50_000
	return row{
		cfg: core.Config{Kernels: 2, UserPEs: 4, Cost: &cost, IKCBatching: b},
		script: func(g [][]int, session bool) script.Script {
			return script.Script{
				{PE: g[0][0], Ops: []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2}, {Kind: revoke}}},
				{PE: g[1][0], Ops: []script.Op{partner(session, script.Op{Latch: 3, Asked: 2})}},
				{PE: g[0][1], Ops: []script.Op{ // obtains a child of the root and delegates it across groups
					{Kind: wait, Latch: 1}, {Kind: obtain}, {Kind: wait, Latch: 3},
					{Kind: delegate, Ref: script.Ref{VPE: 2, Op: 1}, To: 1, Session: session},
				}},
			}
		},
		fails: map[script.Ref]error{{VPE: 2, Op: 3}: errAny},
		gone:  true,
	}
}

// TestInterferenceInvalid: the delegator's capability is revoked while a
// group-spanning delegate is in flight.
func TestInterferenceInvalid(t *testing.T) {
	forVariants(t, invalid(core.IKCBatching{}).play)
}

// TestInterferenceInvalidBatched: the delegate handshake must survive a
// mid-flight revocation also when step 1 travels in a batched envelope.
func TestInterferenceInvalidBatched(t *testing.T) {
	forVariants(t, invalid(core.IKCBatching{Exchange: true, ServiceQuery: true}).play)
}

// dropOnce is a fabric that, once armed, loses the next message of one size
// on one directed kernel link.
type dropOnce struct {
	src, dst, size int
	armed          bool
}

func (d *dropOnce) Inspect(_ sim.Time, src, dst, size int) noc.Verdict {
	if d.armed && src == d.src && dst == d.dst && size == d.size {
		d.armed = false
		return noc.Verdict{Drop: true}
	}
	return noc.Verdict{}
}

// TestInterferenceRevokeRacesReply: the source of a group-spanning obtain is
// revoked after the owner linked the pre-agreed child key and before the
// requester's kernel has seen the reply — lost here, and replayed from the
// owner's reply cache once the request is retransmitted. The revoke request
// for the child reaches the requester's kernel first, finds nothing and is
// confirmed; the late reply must then discard the child (the in-flight
// tombstone) instead of inserting a capability whose parent is gone.
func TestInterferenceRevokeRacesReply(t *testing.T) {
	handed := script.Ref{VPE: 1, Op: 1} // the owner's child of the root
	forVariants(t, row{
		cfg: core.Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{}},
		script: func(g [][]int, session bool) script.Script {
			return script.Script{
				// Revokes the root once the owner is asked, after the owner's
				// kernel linked the child and answered, long before the
				// requester's retransmission timer fires.
				{PE: g[0][0], Ops: []script.Op{
					{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2},
					{Kind: sleep, At: sim.Time(core.RTOBase / 3)}, {Kind: revoke},
				}},
				{PE: g[0][1], Ops: []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain}, partner(session, script.Op{Ref: handed, Latch: 3, Asked: 2})}},
				{PE: g[1][0], Ops: []script.Op{{Kind: wait, Latch: 3}, {Kind: obtain, Ref: handed, Session: session}}},
			}
		},
		// The owner being asked is the moment the exchange's reply gets lost.
		hook: func(_ *testing.T, sys *core.System) func(vpe, op int) {
			lost := &dropOnce{src: 0, dst: 1, size: core.IKCRepBytes}
			sys.Net.SetInjector(lost)
			return func(vpe, op int) {
				if vpe == 0 && op == 2 {
					lost.armed = true
				}
			}
		},
		fails: map[script.Ref]error{{VPE: 2, Op: 1}: core.ErrInRevocation},
		gone:  true,
		check: func(t *testing.T, sys *core.System, _ [][]script.Record) {
			if st := sys.TotalStats(); st.RevokedInFlight == 0 || st.ReplayedReplies == 0 {
				t.Errorf("RevokedInFlight = %d, ReplayedReplies = %d: the revoke did not race a replayed reply",
					st.RevokedInFlight, st.ReplayedReplies)
			}
		},
	}.play)
}

// TestInterferenceIncomplete: two revocations of overlapping subtrees
// (A1 -> B2 -> C1, revoke A and revoke B concurrently) must both return
// only after the entire affected subtree is deleted everywhere — no
// acknowledgements of incomplete revokes (paper §4.3.1/4.3.3). Each
// revoke is followed by an op that returns at once, whose start is the
// check.
func TestInterferenceIncomplete(t *testing.T) {
	row{
		cfg: core.Config{Kernels: 2, UserPEs: 3},
		script: func(g [][]int, _ bool) script.Script {
			b := script.Ref{VPE: 1, Op: 1}
			return script.Script{
				{PE: g[0][0], Ops: []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 3}, {Kind: revoke}, {Kind: sleepUntil}}},
				{PE: g[1][0], Ops: []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain, Latch: 2}, {Kind: wait, Latch: 3}, {Kind: revoke, Ref: b}, {Kind: sleepUntil}}},
				{PE: g[0][1], Ops: []script.Op{{Kind: wait, Latch: 2}, {Kind: obtain, Ref: b, Latch: 3}}},
			}
		},
		hook: func(t *testing.T, sys *core.System) func(vpe, op int) {
			return func(vpe, op int) {
				switch {
				case vpe == 0 && op == 3: // the entire chain must be gone from every kernel
					if n := core.MemCapsEverywhere(sys); n != 0 {
						t.Errorf("revoke A acknowledged with %d caps left", n)
					}
				case vpe == 1 && op == 4: // B's subtree (B and C) must be gone everywhere
					if n := core.OwnedMemCaps(sys, sys.VPEs()[1].ID) + core.OwnedMemCaps(sys, sys.VPEs()[2].ID); n != 0 {
						t.Errorf("revoke B acknowledged with its subtree alive (%d caps)", n)
					}
				}
			}
		},
		gone: true,
	}.play(t, false)
}

// TestInterferencePointless: exchanges of capabilities that are in
// revocation are denied immediately (the mark phase makes them visible),
// preventing pointless exchanges. A middle holder on the other kernel
// obtains the root and hands its copy on; a third party sets the root's
// revoke off once the holder is up and, giving the revocation a head start
// so the mark phase reached the holder, tries to obtain the copy.
func TestInterferencePointless(t *testing.T) {
	mid := script.Ref{VPE: 1, Op: 1}
	forVariants(t, row{
		cfg: core.Config{Kernels: 2, UserPEs: 4},
		script: func(g [][]int, session bool) script.Script {
			return script.Script{
				{PE: g[0][0], Ops: []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2}, {Kind: revoke}}},
				// Nobody waits for latch 4: it makes the service decide like a VPE.
				{PE: g[1][0], Ops: []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain}, partner(session, script.Op{Ref: mid, Latch: 3, Asked: 4})}},
				{PE: g[0][1], Ops: []script.Op{
					{Kind: wait, Latch: 3}, {Kind: sleepUntil, Latch: 2}, {Kind: sleep, At: 30_000},
					{Kind: obtain, Ref: mid, Session: session},
				}},
			}
		},
		fails: map[script.Ref]error{{VPE: 2, Op: 3}: errAny},
		gone:  true,
		check: func(t *testing.T, _ *core.System, recs [][]script.Record) {
			if err := recs[2][3].Err; err != core.ErrInRevocation && err != core.ErrNoSuchCap {
				t.Errorf("err = %v, want ErrInRevocation (or ErrNoSuchCap after sweep)", err)
			}
		},
	}.play)
}

// --- exchange and revocation ----------------------------------------------

// exchangeRow plays an owner's ops on the first user PE of a machine of
// kernels kernels and two user PEs and its peer's on the last.
func exchangeRow(kernels int, owner, peer []script.Op, gone bool, check func(t *testing.T, sys *core.System, recs [][]script.Record)) row {
	return row{
		cfg: core.Config{Kernels: kernels, UserPEs: 2},
		script: func(g [][]int, _ bool) script.Script {
			last := g[len(g)-1]
			return script.Script{{PE: g[0][0], Ops: owner}, {PE: last[len(last)-1], Ops: peer}}
		},
		gone:  gone,
		check: check,
	}
}

// The exchanges of exchangeRow: the owner allocates a root, which the peer
// obtains; latch 2 opens once it has.
var (
	root       = []script.Op{{Kind: alloc, Latch: 1}}
	obtainRoot = []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain}}
	obtained   = []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain, Latch: 2}}
)

// TestExitRevokesEverything: a VPE's exit revokes all its capabilities,
// including children delegated to other kernels.
func TestExitRevokesEverything(t *testing.T) {
	owner := []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2}, {Kind: exit}}
	exchangeRow(2, owner, obtained, true, func(t *testing.T, sys *core.System, _ [][]script.Record) {
		owner := sys.VPEs()[0]
		if !owner.Exited() {
			t.Error("owner not exited")
		}
		if got := len(sys.Kernel(0).Store().VPECaps(owner.ID)); got != 0 {
			t.Errorf("owner still holds %d caps", got)
		}
	}).play(t, false)
}

func TestObtainLocal(t *testing.T) {
	exchangeRow(1, root, obtainRoot, false, func(t *testing.T, sys *core.System, _ [][]script.Record) {
		if n := sys.Kernel(0).Stats().Obtains; n != 1 {
			t.Errorf("obtains = %d, want 1", n)
		}
		if n := sys.Kernel(0).Store().Len(); n != 4 { // 2 VPE caps + owner mem + child mem
			t.Errorf("total caps = %d, want 4", n)
		}
	}).play(t, false)
}

func TestObtainSpanning(t *testing.T) {
	exchangeRow(2, root, obtainRoot, false, func(t *testing.T, sys *core.System, recs [][]script.Record) {
		k0, k1 := sys.Kernel(0), sys.Kernel(1)
		if n := k1.Stats().Obtains; n != 1 {
			t.Errorf("requester kernel obtains = %d, want 1", n)
		}
		if k0.Stats().IKCReceived == 0 || k1.Stats().IKCSent == 0 {
			t.Error("no inter-kernel call recorded")
		}
		// The child lives at kernel 1, the parent at kernel 0; links cross.
		cross := false
		if c := k0.Store().LookupSel(sys.VPEs()[0].ID, recs[0][0].Sel); c != nil {
			c.ForEachChild(func(ch ddl.Key) { cross = cross || sys.KernelOfPE(ch.PE()) == k1 })
		}
		if !cross {
			t.Error("no cross-kernel child link found")
		}
	}).play(t, false)
}

func TestRevokeLocal(t *testing.T) {
	// The requester revokes its obtained cap: only the child disappears.
	peer := []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain}, {Kind: revoke, Ref: script.Ref{VPE: 1, Op: 1}}}
	exchangeRow(1, root, peer, false, func(t *testing.T, sys *core.System, _ [][]script.Record) {
		if n := sys.Kernel(0).Stats().CapsDeleted; n != 1 {
			t.Errorf("deleted = %d, want 1", n)
		}
		if n := sys.Kernel(0).Store().Len(); n != 3 {
			t.Errorf("total caps = %d, want 3", n)
		}
	}).play(t, false)
}

func TestRevokeRecursiveSpanning(t *testing.T) {
	// The owner revokes its root: the remote child must disappear too.
	owner := []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2}, {Kind: revoke}}
	exchangeRow(2, owner, obtained, true, func(t *testing.T, sys *core.System, _ [][]script.Record) {
		if got := sys.TotalStats().CapsDeleted; got != 2 {
			t.Errorf("caps deleted = %d, want 2", got)
		}
	}).play(t, false)
}

func TestObtainDenied(t *testing.T) {
	owner := []script.Op{{Kind: alloc, Latch: 1}, {Kind: script.Consent, Deny: true}}
	r := exchangeRow(1, owner, obtainRoot, false, nil)
	r.fails = map[script.Ref]error{{VPE: 1, Op: 1}: core.ErrDenied}
	r.play(t, false)
}

func TestDelegateLocalAndSpanning(t *testing.T) {
	receiver := []script.Op{{Kind: script.Consent}} // a passive receiver
	delegator := []script.Op{{Kind: alloc}, {Kind: delegate, Ref: script.Ref{VPE: 1}}}
	for _, tc := range []struct {
		name    string
		kernels int
	}{{"local", 1}, {"spanning", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			row{
				cfg: core.Config{Kernels: tc.kernels, UserPEs: 2},
				script: func(g [][]int, _ bool) script.Script {
					last := g[len(g)-1]
					return script.Script{{PE: last[len(last)-1], Ops: receiver}, {PE: g[0][0], Ops: delegator}}
				},
				check: func(t *testing.T, sys *core.System, _ [][]script.Record) {
					// The receiver must now own a mem cap child.
					receiver := sys.VPEs()[0]
					memCaps := 0
					for _, c := range receiver.Kernel().Store().VPECaps(receiver.ID) {
						if _, ok := c.Object.(*cap.MemObject); ok {
							memCaps++
							if c.Parent == 0 {
								t.Error("delegated cap has no parent link")
							}
						}
					}
					if memCaps != 1 {
						t.Errorf("receiver mem caps = %d, want 1", memCaps)
					}
				},
			}.play(t, false)
		})
	}
}

// TestChainRevocation: a capability obtained down a chain of eight VPEs —
// all in one group, or alternating between two — is revoked at its root
// once the chain stands, from a fresh proc bound to the root's VPE, and
// every link goes.
func TestChainRevocation(t *testing.T) {
	const chainLen = 8
	for _, tc := range []struct {
		name    string
		kernels int
	}{{"local", 1}, {"spanning", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := core.MustNew(core.Config{Kernels: tc.kernels, UserPEs: chainLen + 1})
			t.Cleanup(sys.Close)
			pes, half := sys.UserPEs(), (chainLen+2)/2
			sc := script.Script{{PE: pes[0], Ops: root}}
			for i := 1; i <= chainLen; i++ {
				pe := pes[i]
				if tc.kernels == 2 { // the first PEs of group 0 and group 1 in turn
					pe = pes[i/2+i%2*half]
				}
				prev := script.Ref{VPE: i - 1, Op: min(i-1, 1)} // the alloc, or the obtain
				sc = append(sc, script.VPE{PE: pe, Ops: []script.Op{{Kind: wait, Latch: i}, {Kind: obtain, Ref: prev, Latch: i + 1}}})
			}
			recs := script.Run(sys, sc, nil)
			outcomes(t, recs, nil)
			err := errors.New("revoke did not complete")
			sys.Eng.Spawn("drive", func(p *sim.Proc) { err = sys.VPEs()[0].Revoke(p, recs[0][0].Sel) })
			sys.Run()
			if err != nil {
				t.Errorf("revoke: %v", err)
			}
			if deleted := sys.TotalStats().CapsDeleted; deleted != chainLen+1 {
				t.Errorf("deleted = %d, want %d", deleted, chainLen+1)
			}
			checkAudit(t, sys)
		})
	}
}

// fanOut is VPE 0 on pes[0] allocating a root, which n clients on the next
// PEs obtain, and then waiting for them, and revoking the root if revokes.
func fanOut(pes []int, n int, revokes bool) script.Script {
	root := []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2}, {Kind: revoke}}
	if !revokes {
		root = root[:2]
	}
	sc := script.Script{{PE: pes[0], Ops: root}}
	for i := 0; i < n; i++ {
		sc = append(sc, script.VPE{PE: pes[1+i], Ops: obtained})
	}
	return sc
}

func TestTreeRevocationAcrossKernels(t *testing.T) {
	const kids = 12
	sys := core.MustNew(core.Config{Kernels: 4, UserPEs: kids + 1})
	t.Cleanup(sys.Close)
	outcomes(t, script.Run(sys, fanOut(sys.UserPEs(), kids, true), nil), nil)
	if deleted := sys.TotalStats().CapsDeleted; deleted != kids+1 {
		t.Errorf("deleted = %d, want %d", deleted, kids+1)
	}
	checkAudit(t, sys)
}

// --- the reliable layer ---------------------------------------------------

// reliableFanout plays fanOut without the revoke: a root and n clients
// spread over the machine's kernels, each obtaining it once. Their errors
// are data under fault injection; ok asserts there are none.
func reliableFanout(t *testing.T, cfg core.Config, n int, ok bool) *core.System {
	t.Helper()
	sys := core.MustNew(cfg)
	t.Cleanup(sys.Close)
	recs := script.Run(sys, fanOut(sys.UserPEs(), n, false), nil)
	if err := recs[0][0].Err; err != nil {
		t.Errorf("alloc: %v", err)
	}
	if ok {
		outcomes(t, recs, nil)
	}
	return sys
}

// TestReliableModeLossless: the reliability layer on a lossless fabric is
// pure bookkeeping — every operation succeeds and no reliability event
// (retransmit, dedup, late reply, death) ever fires at this scale.
func TestReliableModeLossless(t *testing.T) {
	const kids = 12
	s := reliableFanout(t, core.Config{Kernels: 4, UserPEs: kids + 7, Faults: &fault.Plan{}}, kids, true)
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
	s := reliableFanout(t, core.Config{Kernels: 4, UserPEs: kids + 7, Faults: plan}, kids, true)
	fs := s.FaultStats()
	if fs.Inspected == 0 {
		t.Fatalf("injector saw no kernel-link traffic")
	}
	if fs.Dropped == 0 {
		t.Fatalf("plan dropped nothing (Inspected=%d); pick a hotter seed", fs.Inspected)
	}
	if s.TotalStats().Retransmits == 0 {
		t.Errorf("drops occurred (%d) but nothing was retransmitted", fs.Dropped)
	}
	if got := s.Net.Stats().Lost; got < fs.Dropped {
		t.Errorf("Net lost %d < injector dropped %d", got, fs.Dropped)
	}
	checkAudit(t, s)
}

// sameRuns asserts that two runs reproduce each other exactly: kernel
// stats, injector stats and lost messages.
func sameRuns(t *testing.T, run func() *core.System) {
	t.Helper()
	s1, s2 := run(), run()
	if st1, st2 := s1.TotalStats(), s2.TotalStats(); st1 != st2 {
		t.Errorf("kernel stats differ across identical runs:\n%+v\n%+v", st1, st2)
	}
	if fs1, fs2 := s1.FaultStats(), s2.FaultStats(); fs1 != fs2 {
		t.Errorf("injector stats differ across identical runs:\n%+v\n%+v", fs1, fs2)
	}
	if lost1, lost2 := s1.Net.Stats().Lost, s2.Net.Stats().Lost; lost1 != lost2 {
		t.Errorf("lost counts differ: %d vs %d", lost1, lost2)
	}
}

// TestFaultyRunDeterministic: the same seed reproduces a faulty run
// exactly — kernel stats, injector stats and event counts all match.
func TestFaultyRunDeterministic(t *testing.T) {
	sameRuns(t, func() *core.System {
		const kids = 16
		plan := &fault.Plan{Seed: 17, Drop: 0.10, Dup: 0.05, Jitter: 300}
		return reliableFanout(t, core.Config{Kernels: 4, UserPEs: kids + 7, Faults: plan}, kids, false)
	})
}

// TestBaselineHasNoReliabilityState: without a fault plan the reliable
// layer must not exist at all — no peer record holds a reply cache or a
// live transmission, and its counters stay zero, preserving the
// byte-identical baseline.
func TestBaselineHasNoReliabilityState(t *testing.T) {
	const kids = 8
	s := reliableFanout(t, core.Config{Kernels: 4, UserPEs: kids + 7}, kids, true)
	records, found := s.ReliableState()
	for _, f := range found {
		t.Errorf("%s without a fault plan", f)
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

// TestDeadKernelFailFast: a kernel whose links are dead from the start
// cannot reach the capability owner; its client's obtains must resolve to
// ErrPeerDead — promptly for the second, minted after the death verdict,
// without burning another retry ladder — and the run must terminate with
// both user programs done.
func TestDeadKernelFailFast(t *testing.T) {
	row{
		cfg: core.Config{Kernels: 2, UserPEs: 8, Faults: &fault.Plan{Seed: 1, Kernels: []fault.KernelFault{{Kernel: 1, CrashAt: 1}}}},
		script: func(g [][]int, _ bool) script.Script {
			return script.Script{
				{PE: g[0][0], Ops: []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2}}},
				{PE: g[1][0], Ops: []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain}, {Kind: obtain, Latch: 2}}},
			}
		},
		fails: map[script.Ref]error{{VPE: 1, Op: 1}: core.ErrPeerDead, {VPE: 1, Op: 2}: core.ErrPeerDead},
		check: func(t *testing.T, sys *core.System, _ [][]script.Record) {
			if st := sys.TotalStats(); st.DeadPeers == 0 || st.FailFast == 0 {
				t.Errorf("no death verdict or no request failed fast: %+v", st)
			}
		},
	}.play(t, false)
}

// spanningChurn plays n spanning obtains and revokes back to back between a
// machine's first and last user PE, which sit on different kernels: the
// owner derives a child of its root, the far VPE obtains it, and the owner
// revokes it, which takes one forward to the far kernel.
func spanningChurn(t *testing.T, cfg core.Config, n int) *core.System {
	t.Helper()
	sys := core.MustNew(cfg)
	t.Cleanup(sys.Close)
	pes := sys.UserPEs()
	owner, far := []script.Op{{Kind: alloc}}, []script.Op{}
	for i := 0; i < n; i++ {
		mid := script.Ref{VPE: 0, Op: len(owner)}
		owner = append(owner, script.Op{Kind: derive, Latch: 2*i + 1}, script.Op{Kind: wait, Latch: 2*i + 2}, script.Op{Kind: revoke, Ref: mid})
		far = append(far, script.Op{Kind: wait, Latch: 2*i + 1}, script.Op{Kind: obtain, Ref: mid, Latch: 2*i + 2})
	}
	outcomes(t, script.Run(sys, script.Script{{PE: pes[0], Ops: owner}, {PE: pes[len(pes)-1], Ops: far}}, nil), nil)
	return sys
}

// TestRecycledTransmissionsStayQuiet: 200 spanning obtains and revokes in
// reliable mode on a lossless fabric, direct and batched. Each operation's
// transmission records are recycled while the timers of earlier ones are
// still pending, so a stale timer reaching a reused record would show up as
// a spurious retransmit, a duplicate or a late reply; none appears.
func TestRecycledTransmissionsStayQuiet(t *testing.T) {
	for _, tc := range []struct {
		name     string
		batching core.IKCBatching
	}{
		{"direct", core.IKCBatching{}},
		{"batched", core.IKCBatching{Exchange: true, Revoke: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := spanningChurn(t, core.Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{}, IKCBatching: tc.batching}, 200)
			st := s.TotalStats()
			if st.Retransmits != 0 || st.LateReplies != 0 || st.DupSuppressed != 0 {
				t.Errorf("Retransmits %d, LateReplies %d, DupSuppressed %d, want all 0",
					st.Retransmits, st.LateReplies, st.DupSuppressed)
			}
			if s.FreeXmits() == 0 {
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
		batching core.IKCBatching
		want     [5][4]uint64
	}{
		{"direct", core.IKCBatching{}, [5][4]uint64{
			{38, 35, 2520101, 22},
			{38, 36, 2472786, 17},
			{47, 42, 3188105, 27},
			{39, 38, 2476207, 20},
			{33, 29, 2752640, 18},
		}},
		{"batched", core.IKCBatching{Exchange: true, Revoke: true}, [5][4]uint64{
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
				s := spanningChurn(t, core.Config{Kernels: 2, UserPEs: 4, Faults: plan, IKCBatching: tc.batching}, 200)
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

// spanningObtain starts, on a machine built from cfg, an owner on the first
// user PE that allocates a memory capability and a client on the last that
// obtains it once, across kernels, and returns the two kernels.
func spanningObtain(t *testing.T, cfg core.Config) (s *core.System, owner, client *core.Kernel, recs [][]script.Record) {
	t.Helper()
	s = core.MustNew(cfg)
	t.Cleanup(s.Close)
	pes := s.UserPEs()
	owner, client = s.KernelOfPE(pes[0]), s.KernelOfPE(pes[len(pes)-1])
	if owner == client {
		t.Fatal("owner and client share a kernel")
	}
	return s, owner, client, script.Start(s, script.Script{{PE: pes[0], Ops: root}, {PE: pes[len(pes)-1], Ops: obtainRoot}}, nil)
}

// TestQuiescentNamesThreadAwaitingReply: a kernel thread parked on an
// inter-kernel reply is a finding of the audit, named by what it waits for.
// A two-kernel spanning obtain, stopped after its request has left and
// before its reply lands, holds the client's syscall thread in its reply
// slot and the request in its kernel's pending table; run to the end, the
// call completes once and the machine is quiescent.
func TestQuiescentNamesThreadAwaitingReply(t *testing.T) {
	s, _, client, recs := spanningObtain(t, core.Config{Kernels: 2, UserPEs: 4})
	awaiting := func() (thread, pending bool) {
		for _, f := range s.CheckQuiescent() {
			thread = thread || strings.HasSuffix(f, "syscall obtainfrom, await-reply")
			pending = pending || f == fmt.Sprintf("k%d: 1 request(s) still awaiting a reply", client.ID())
		}
		return thread, pending
	}
	for now := sim.Time(0); ; now += 100 {
		if thread, pending := awaiting(); thread && pending {
			break
		}
		if s.Eng.Pending() == 0 {
			t.Fatal("the spanning obtain never parked its thread on the reply")
		}
		s.Eng.RunUntil(now)
	}
	s.Run()
	outcomes(t, recs, nil)
	checkAudit(t, s)
}

// TestDuplicatedReplyCompletesCallOnce: in reliable mode on a fabric that
// duplicates every kernel message, a spanning obtain's call completes
// exactly once — the syscall returns one capability — and every other copy
// of a reply, a duplicate or the replay of a cached reply to a duplicated
// request, finds no call pending and is counted in LateReplies.
func TestDuplicatedReplyCompletesCallOnce(t *testing.T) {
	s, owner, client, recs := spanningObtain(t, core.Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{Seed: 1, Dup: 1}})
	s.Run()
	outcomes(t, recs, nil)
	st := client.Stats()
	if st.Obtains != 1 {
		t.Fatalf("%d obtains completed, want 1", st.Obtains)
	}
	// Every reply leg the owner sent arrives twice; one arrival completes
	// the call.
	if late, want := st.LateReplies, 2*owner.Stats().IKCRepSent-1; late != want || late == 0 {
		t.Fatalf("%d late replies, want %d", late, want)
	}
	if dups := owner.Stats().DupSuppressed; dups == 0 {
		t.Fatal("the duplicated request was not suppressed")
	}
	checkAudit(t, s)
}

// --- crash and rejoin -----------------------------------------------------

// TestKernelRejoin: a kernel crashes at boot and recovers mid-run. A
// cross-kernel obtain during the blackhole window fails with ErrPeerDead —
// after the retransmit ladder, 60k + 120k + 240k + 480k + 5 × 960k ≈ 5.7M
// cycles, not hanging; the same obtain past RecoverAt, after the rejoin
// handshake, succeeds against the recovered kernel, which runs as a new
// incarnation, and no capability state leaks.
func TestKernelRejoin(t *testing.T) {
	row{
		cfg: core.Config{Kernels: 2, UserPEs: 8, Faults: &fault.Plan{Seed: 1, Kernels: []fault.KernelFault{
			{Kernel: 1, CrashAt: 1, RecoverAt: 8_000_000},
		}}},
		script: func(g [][]int, _ bool) script.Script {
			return script.Script{
				{PE: g[0][0], Ops: []script.Op{{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2}}},
				{PE: g[1][0], Ops: []script.Op{{Kind: wait, Latch: 1}, {Kind: obtain}, {Kind: sleepUntil, At: 9_000_000}, {Kind: obtain, Latch: 2}}},
			}
		},
		fails: map[script.Ref]error{{VPE: 1, Op: 1}: core.ErrPeerDead},
		check: func(t *testing.T, sys *core.System, _ [][]script.Record) {
			if inc0, inc1 := sys.Kernel(0).Incarnation(), sys.Kernel(1).Incarnation(); inc0 != 1 || inc1 != 2 {
				t.Errorf("incarnations %d and %d, want 1 (surviving) and 2 (recovered)", inc0, inc1)
			}
			if st := sys.Kernel(1).Stats(); st.Rejoins != 1 || st.RejoinCycles == 0 {
				t.Errorf("Rejoins = %d in %d cycles, want 1 in some", st.Rejoins, st.RejoinCycles)
			}
			if sys.TotalStats().DeadPeers == 0 {
				t.Errorf("crash window produced no death verdict")
			}
		},
	}.play(t, false)
}

// TestRejoinReplaysOrphanedRevocation: a revocation races the crash — the
// local parent is deleted but the remote child is unreachable, orphaning
// authority on the crashed kernel. The recorded fix must be replayed at
// rejoin so the orphan is revoked on the new incarnation. The owner revokes
// mid-blackhole and stays alive past the rejoin so the replay drains
// before the run ends.
func TestRejoinReplaysOrphanedRevocation(t *testing.T) {
	row{
		cfg: core.Config{Kernels: 2, UserPEs: 8, Faults: &fault.Plan{Seed: 3, Kernels: []fault.KernelFault{
			{Kernel: 1, CrashAt: 200_000, RecoverAt: 800_000},
		}}},
		script: func(g [][]int, _ bool) script.Script {
			return script.Script{
				{PE: g[0][0], Ops: []script.Op{
					{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 2},
					{Kind: sleepUntil, At: 300_000}, {Kind: revoke}, {Kind: sleepUntil, At: 1_400_000},
				}},
				{PE: g[1][0], Ops: obtained},
			}
		},
		gone: true,
		check: func(t *testing.T, sys *core.System, _ [][]script.Record) {
			if st := sys.Kernel(1).Stats(); st.Rejoins != 1 {
				t.Errorf("Rejoins = %d, want 1", st.Rejoins)
			}
		},
	}.play(t, false)
}

// TestRejoinDeterministic: a lossy run with a crash+recover window in the
// middle reproduces exactly under the same seed — rejoin bookkeeping,
// orphan replay and stale-incarnation rejections included.
func TestRejoinDeterministic(t *testing.T) {
	sameRuns(t, func() *core.System {
		const kids = 16
		plan := &fault.Plan{Seed: 23, Drop: 0.08, Kernels: []fault.KernelFault{
			{Kernel: 1, CrashAt: 30_000, RecoverAt: 400_000},
		}}
		s := reliableFanout(t, core.Config{Kernels: 4, UserPEs: kids + 7, Faults: plan}, kids, false)
		if got := s.Kernel(1).Stats().Rejoins; got != 1 {
			t.Errorf("Rejoins = %d, want 1", got)
		}
		checkAudit(t, s)
		return s
	})
}

// crashRow is a script on a machine of kernels kernels and six user PEs
// under plan, with an event limit of 1 << 22, whose audit must be clean.
func crashRow(kernels int, b core.IKCBatching, plan *fault.Plan, sc script.Script, fails map[script.Ref]error) row {
	eng := sim.NewEngine()
	eng.SetEventLimit(1 << 22)
	return row{
		cfg:    core.Config{Kernels: kernels, UserPEs: 6, IKCBatching: b, Faults: plan, Engine: eng},
		script: func([][]int, bool) script.Script { return sc },
		fails:  fails,
	}
}

// TestRejoinRejectsRequestsToDeadIncarnation: a request addressed to a
// kernel's dead incarnation is not granted by the recovered one. Kernel 1
// crashes and recovers while VPE 3's second obtain from it is in flight;
// kernel 0 admits the rejoin and fails the obtain with ErrPeerDead, and a
// duplicate of the request still on the wire reaches the recovered kernel.
// Granting it would link a child that nobody inserts: the requester's
// failure and the owner's tables must agree. The script and the machine are
// the fuzzer's finding as it was shrunk; other ops of it only set the
// timing. Its revokes of VPE 3's first capability after the first one fail.
func TestRejoinRejectsRequestsToDeadIncarnation(t *testing.T) {
	own := script.Ref{VPE: 3}
	crashRow(2, core.IKCBatching{}, &fault.Plan{
		Seed: 13576439600450300579, Dup: 0.01,
		Kernels: []fault.KernelFault{{Kernel: 1, CrashAt: 21579, RecoverAt: 86769}},
	}, script.Script{
		{PE: 7, Ops: []script.Op{{Kind: alloc}, {Kind: alloc}, {Kind: alloc}, {Kind: revoke}}},
		{PE: 6, Ops: []script.Op{{Kind: alloc, Latch: 1}, {Kind: alloc}}},
		{PE: 5, Ops: []script.Op{{Kind: alloc}}},
		{PE: 4, Ops: []script.Op{
			{Kind: alloc}, {Kind: wait, Latch: 1}, {Kind: obtain, Ref: script.Ref{VPE: 1}}, {Kind: alloc}, {Kind: revoke, Ref: own},
			{Kind: wait, Latch: 1}, {Kind: obtain, Ref: script.Ref{VPE: 1}}, {Kind: revoke, Ref: own},
		}},
	}, map[script.Ref]error{{VPE: 3, Op: 6}: core.ErrPeerDead, {VPE: 3, Op: 7}: errAny}).play(t, false)
}

// TestDelegateAckSwallowedByCrash: a group-spanning delegate whose receiver
// inserted the child and then crashed, swallowing its answer to the
// delegator's acknowledgement. The delegator's call fails with ErrPeerDead
// when the receiver rejoins, but the link it made stays: the child may
// exist, and the reconciliation at the rejoin revokes it, so no
// capability is left without its parent's link.
func TestDelegateAckSwallowedByCrash(t *testing.T) {
	crashRow(3, core.IKCBatching{Exchange: true, Revoke: true}, &fault.Plan{
		Seed: 12796119310265595777, Drop: 0.01, Dup: 0.01, Jitter: 2,
		Kernels: []fault.KernelFault{{Kernel: 2, CrashAt: 16777, RecoverAt: 262647}},
	}, script.Script{
		{PE: 5, Ops: []script.Op{{Kind: alloc}}},
		{PE: 6, Ops: []script.Op{{Kind: alloc}, {Kind: delegate, Ref: script.Ref{VPE: 1}, To: 2}}},
		{PE: 7},
	}, map[script.Ref]error{{VPE: 1, Op: 1}: core.ErrPeerDead}).play(t, false)
}

// --- nested chains ----------------------------------------------------------

// nestedChains starts — and leaves to the caller to run — capability chains
// that leave a kernel and come back, on cfg.Kernels kernels with n clients
// each: every client allocates a root, obtains the root of its counterpart
// in group g+1 and delegates what it obtained to a neighbour's counterpart in
// group g+2 — on two kernels the owner's own group (A → B → A), on three a
// ring (A → B → C → A). Then all roots are revoked at once — or, obtained,
// all the obtained capabilities, whose revoke also unlinks them from their
// parent on another kernel. Op 5 of every VPE is its revoke.
// (benchmark/README.md, "The nested-chain revoke finding".)
func nestedChains(t *testing.T, cfg core.Config, n int, obtained bool) (*core.System, [][]script.Record) {
	t.Helper()
	groups := cfg.Kernels
	cfg.UserPEs = groups * n
	sys := core.MustNew(cfg)
	pes := sys.UserPEs()
	for c, pe := range pes {
		if sys.KernelOfPE(pe) != sys.KernelOfPE(pes[c/n*n]) {
			t.Fatalf("PE groups are not %d blocks of %d", groups, n)
		}
	}
	hop := 2 // the delegate's group, relative to the client's
	if groups == 2 {
		hop = 1
	}
	revoked := 0
	if obtained {
		revoked = 2
	}
	sc := make(script.Script, len(pes))
	for c := range sc {
		g, i := c/n, c%n
		sc[c] = script.VPE{PE: pes[c], Ops: []script.Op{
			{Kind: alloc, Latch: 1}, {Kind: wait, Latch: 1}, // all roots exist
			{Kind: obtain, Ref: script.Ref{VPE: (g+1)%groups*n + i}},
			{Kind: delegate, Ref: script.Ref{VPE: c, Op: 2}, To: (g+hop)%groups*n + (i+1)%n, Latch: 2},
			{Kind: wait, Latch: 2}, // all chains stand
			{Kind: revoke, Ref: script.Ref{VPE: c, Op: revoked}},
		}}
	}
	return sys, script.Start(sys, sc, nil)
}

// chainsEnded asserts that every op of a drained nested-chain machine
// succeeded, that no kernel declared a live peer dead, and that the audit
// is clean.
func chainsEnded(t *testing.T, sys *core.System, recs [][]script.Record) {
	t.Helper()
	outcomes(t, recs, nil)
	if dead := sys.TotalStats().DeadPeers; dead != 0 {
		t.Errorf("%d live peers declared dead", dead)
	}
	checkAudit(t, sys)
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
					cfg := core.Config{Kernels: shape.kernels, IKCBatching: core.IKCBatching{Revoke: variant.batched}, Faults: fabric.faults}
					s, recs := nestedChains(t, cfg, shape.n, variant.obtained)
					defer s.Close()
					s.Run()
					chainsEnded(t, s, recs)
					if allocs := testing.AllocsPerRun(10, func() { s.CheckQuiescent() }); allocs != 0 {
						t.Errorf("a clean CheckQuiescent allocates %v times, want 0", allocs)
					}
					left := 0 // revoking the roots takes everything; else the roots stay
					if variant.obtained {
						left = shape.kernels * shape.n
					}
					if got := core.MemCapsEverywhere(s); got != left {
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
		cfg := core.Config{Kernels: 2, Faults: &fault.Plan{Seed: 1, Drop: drop}}
		for _, n := range []int{3, 4} {
			t.Run(fmt.Sprintf("drop=%v/2x%d", drop, n), func(t *testing.T) {
				s, recs := nestedChains(t, cfg, n, false)
				defer s.Close()
				s.Run()
				chainsEnded(t, s, recs)
				if got := core.MemCapsEverywhere(s); got != 0 {
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
					cfg := core.Config{Kernels: shape.kernels, Faults: &plan,
						IKCBatching: core.IKCBatching{Exchange: batched, Revoke: batched}}
					s, recs := nestedChains(t, cfg, shape.n, false)
					defer s.Close()
					s.Run()
					chainsEnded(t, s, recs)
				})
			}
		}
	}
}

// TestRequestRecordsComeHome: on a drained machine every request record
// ever made is back on the free list, so no holder kept a reference — on
// the nested-chain machine of three kernels, six chains each, revoking the
// roots or the obtained capabilities, unbatched and batched, on the
// lossless fabric and in reliable mode on one that drops and duplicates
// 5% of kernel messages, where retransmits, duplicated envelopes and
// replayed replies hold and drop references too. CheckQuiescent reports a
// record still held; the test also checks that records were recycled.
func TestRequestRecordsComeHome(t *testing.T) {
	for _, obtained := range []bool{false, true} {
		for _, batched := range []bool{false, true} {
			for _, faults := range []*fault.Plan{nil, {Seed: 2, Drop: 0.05, Dup: 0.05}} {
				name := fmt.Sprintf("obtained=%v/batched=%v/faults=%v", obtained, batched, faults != nil)
				t.Run(name, func(t *testing.T) {
					cfg := core.Config{Kernels: 3, IKCBatching: core.IKCBatching{Exchange: batched, Revoke: batched}, Faults: faults}
					s, recs := nestedChains(t, cfg, 6, obtained)
					defer s.Close()
					s.Run()
					outcomes(t, recs, nil)
					checkAudit(t, s)
					st := s.TotalStats()
					if made, free := s.RequestRecords(); made == 0 || uint64(made) >= st.IKCSent || free != made {
						t.Errorf("%d request records made, %d on the free list, for %d requests sent", made, free, st.IKCSent)
					}
					if faults != nil && (st.Retransmits == 0 || st.DupSuppressed == 0) {
						t.Errorf("%d retransmits and %d duplicates suppressed: the faults did not reach the requests", st.Retransmits, st.DupSuppressed)
					}
				})
			}
		}
	}
}

// TestKillKernelThreadsInEveryStage: Close unwinds kernel threads wherever
// their wait records have them parked — for a job, for a reply, a credit or
// a revocation (a nested-chain machine stopped mid-revoke), for the CPU to
// start a job on or to go on with one, and in the middle of a job's owed
// time with the epilogue still to run (a loaded machine, its clients
// deriving from their roots, stopped mid-round) — and the engine goes back
// through the pool for the next machine.
func TestKillKernelThreadsInEveryStage(t *testing.T) {
	engines := sim.NewPool()
	stages := map[string]bool{}
	for round := 0; round < 2; round++ {
		eng := engines.Get()
		s := core.MustNew(core.Config{Kernels: 1, UserPEs: core.LoadedClients, Engine: eng})
		sc := script.Script{}
		for c, pe := range s.UserPEs() {
			storm := []script.Op{{Kind: alloc}}
			for len(storm) < 1000 { // more derives than the run has time for
				storm = append(storm, script.Op{Kind: derive, Ref: script.Ref{VPE: c}})
			}
			sc = append(sc, script.VPE{PE: pe, Ops: storm})
		}
		recs := script.Start(s, sc, nil)
		s.RunFor(1_000_000) // mid-storm: one thread settling, the rest queued for the CPU to start a derive on
		if n, first := script.Failures(recs...); n != 0 {
			t.Errorf("%d ops of the loaded machine failed, the first with %v", n, first)
		}
		s.NoteStages(stages)
		s.Close()
		if n := eng.LiveProcs(); n != 0 {
			t.Fatalf("round %d: %d procs live after Close of the loaded machine", round, n)
		}
		engines.Put(eng) // the second round builds on it again
	}
	// Sixteen chains per kernel pair, stopped while the revokes are in
	// flight: syscall threads wait for their revocations and for credits,
	// revoke forwards wait as data.
	s, recs := nestedChains(t, core.Config{Kernels: 2}, 16, false)
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
		if returned := slices.ContainsFunc(recs, func(rs []script.Record) bool { return rs[5].End != 0 }); slice == 1000 || returned {
			t.Fatal("no instant with revoke syscalls awaiting their revocation and a credit, and a forward deferred")
		}
		s.Eng.RunUntil(slice * 1000)
	}
	s.NoteStages(stages)
	s.Close()
	if n := s.Eng.LiveProcs(); n != 0 {
		t.Fatalf("%d procs live after Close of the nested-chain machine", n)
	}
	for _, st := range []string{"epilogue", "job", "job-cpu", "inner", "cpu"} {
		if !stages[st] {
			t.Errorf("no thread was parked in stage %s when its machine was closed", st)
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
	deferred := func(s *core.System) (dirs int) {
		for _, f := range s.CheckQuiescent() {
			if strings.HasSuffix(f, "forwarded revoke(s) waiting for a credit") {
				dirs++
			}
		}
		return dirs
	}
	// The first instant at which a fault-free reliable run has revokes in
	// flight both ways, picked up on each kernel.
	probe, _ := nestedChains(t, core.Config{Kernels: 2, Faults: &fault.Plan{}}, n, false)
	crashAt := sim.Time(0)
	for !probe.RevokingEverywhere() {
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
			s, recs := nestedChains(t, core.Config{Kernels: 2, Faults: plan}, n, false)
			defer s.Close()
			s.Eng.RunUntil(crashAt + 50_000)
			if got := deferred(s); got != 2 {
				t.Fatalf("forwards deferred in %d directions during the blackhole, want 2", got)
			}
			s.Run()
			outcomes(t, recs, nil)
			st := s.TotalStats()
			if (st.DeadPeers > 0) != tc.dead || (st.FailFast > 0) != tc.dead || st.Rejoins != 1 {
				t.Errorf("%d death verdicts, %d requests failed unsent, %d rejoins; want both nonzero=%v, 1 rejoin",
					st.DeadPeers, st.FailFast, st.Rejoins, tc.dead)
			}
			checkAudit(t, s)
			if got := core.MemCapsEverywhere(s); got != 0 {
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
		epochOps                  = 2 + 4*3 + 3 // root, barrier, 4 × (obtain, 2 delegates), barrier, revoke, barrier
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
				s := core.MustNew(core.Config{Kernels: kernels, UserPEs: clients, IKCBatching: core.IKCBatching{Revoke: batched}})
				defer s.Close()
				sc := make(script.Script, clients)
				for c := range sc {
					sc[c].PE = s.UserPEs()[c]
				}
				// A client's epoch: a root, a barrier, four obtains each with
				// its two onward delegates, a barrier, the revoke of the root
				// and a barrier, for the next epoch's roots are new.
				for e := 0; e < epochs; e++ {
					latch := 3*e + 1
					for c := range sc {
						ops := append(sc[c].Ops, script.Op{Kind: alloc, Latch: latch}, script.Op{Kind: wait, Latch: latch})
						for i := 0; i < 4; i++ {
							from := member(c/perGroup, c)
							if i >= 2 {
								from = member(other(c), c)
							}
							got := script.Ref{VPE: c, Op: len(ops)}
							ops = append(ops, script.Op{Kind: obtain, Ref: script.Ref{VPE: from, Op: e * epochOps}},
								script.Op{Kind: delegate, Ref: got, To: member(from/perGroup, from, c)},
								script.Op{Kind: delegate, Ref: got, To: member(other(c, from), c)})
						}
						ops[len(ops)-1].Latch = latch + 1
						sc[c].Ops = append(ops, script.Op{Kind: wait, Latch: latch + 1},
							script.Op{Kind: revoke, Ref: script.Ref{VPE: c, Op: e * epochOps}, Latch: latch + 2},
							script.Op{Kind: wait, Latch: latch + 2})
					}
				}
				outcomes(t, script.Run(s, sc, nil), nil)
				checkAudit(t, s)
				if n := core.MemCapsEverywhere(s); n != 0 {
					t.Errorf("%d memory capabilities survived", n)
				}
			})
		}
	}
}
