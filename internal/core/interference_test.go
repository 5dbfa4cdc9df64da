package core

import (
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/sim"
)

// This file reproduces the paper's Table 2 — the interference analysis of
// overlapping capability-modifying operations — as executable tests. Each
// test provokes one cell of the matrix and asserts the protocol's required
// outcome:
//
//	              2nd: Obtain      Delegate        Revoke/Crash
//	1st: Obtain   Serialized       Serialized      Orphaned
//	     Delegate Serialized       Serialized      Invalid
//	     Revoke   Pointless        Pointless       Incomplete

// TestInterferenceSerialized: overlapping obtains of the same capability
// serialize at the owning kernel; both succeed and the tree is consistent.
func TestInterferenceSerialized(t *testing.T) {
	s := newTestSystem(t, 2, 4) // PEs 2,3 -> kernel 0; PEs 4,5 -> kernel 1
	ready := sim.NewFuture[cap.Selector](s.Eng)
	owner, _ := s.SpawnOn(2, "owner", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		ready.Complete(sel)
	})
	errs := make([]error, 2)
	for i, pe := range []int{3, 4} { // one local, one remote requester
		i := i
		s.SpawnOn(pe, "req", func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			_, errs[i] = v.ObtainFrom(p, owner.ID, sel)
		})
	}
	s.Run()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("requester %d: %v", i, err)
		}
	}
	// The owner's capability must list exactly two children.
	k := s.Kernel(0)
	for _, key := range k.store.Keys() {
		c := k.store.Lookup(key)
		if _, ok := c.Object.(*cap.MemObject); ok && c.Parent == 0 {
			if n := c.NumChildren(); n != 2 {
				t.Fatalf("root children = %d, want 2", n)
			}
		}
	}
	checkAudit(t, s)
}

// The exchanges under test run in two variants: directly between two VPEs
// (ObtainFrom / DelegateTo — the partner consents through OnExchange) and
// session-scoped (Session.Obtain / Session.Delegate — the partner is a
// service and consents in its handlers). Both are compositions of the same
// protocol halves (exchange.go), so every case must hold for both.
var exchangeVariants = []struct {
	name    string
	session bool
}{{"direct", false}, {"session", true}}

func forExchangeVariants(t *testing.T, run func(t *testing.T, session bool)) {
	for _, v := range exchangeVariants {
		t.Run(v.name, func(t *testing.T) { run(t, v.session) })
	}
}

// holder is the partner of the exchanges under test: the VPE others obtain
// from or delegate to.
type holder struct {
	v       *VPE
	session bool
	sel     cap.Selector // what it hands out (setup's result)
	ready   *sim.Future[struct{}]
}

const holderService = "holder"

// spawnHolder starts the partner on pe. setup, if any, runs first and returns
// the capability the holder hands out. onAsk runs every time the holder is
// asked for consent — from its exchange hook or its service handler — and
// the holder then accepts after the machine's VPEAccept decision time.
func spawnHolder(t *testing.T, s *System, pe int, session bool, setup func(v *VPE, p *sim.Proc) cap.Selector, onAsk func()) *holder {
	t.Helper()
	h := &holder{session: session, ready: sim.NewFuture[struct{}](s.Eng)}
	var err error
	h.v, err = s.SpawnOn(pe, "holder", func(v *VPE, p *sim.Proc) {
		if setup != nil {
			h.sel = setup(v, p)
		}
		if !session {
			v.OnExchange = func(ExchangeQuery) ExchangeAnswer {
				onAsk()
				return ExchangeAnswer{Accept: true}
			}
			h.ready.Complete(struct{}{})
			p.Park()
		}
		asked := func(p *sim.Proc) {
			p.Settle() // onAsk publishes: the query's cost passes first
			onAsk()
			p.Sleep(s.Cost.VPEAccept)
		}
		if err := v.RegisterService(p, holderService, ServiceHandlers{
			Open: func(*sim.Proc, int, any) SvcResult { return SvcResult{Ident: 1} },
			Obtain: func(p *sim.Proc, _ uint64, _ any) SvcResult {
				asked(p)
				return SvcResult{SrcSel: h.sel}
			},
			Delegate: func(p *sim.Proc, _ uint64, _ any, _ cap.Object) SvcResult {
				asked(p)
				return SvcResult{Accept: true}
			},
		}); err != nil {
			t.Error(err)
			return
		}
		h.ready.Complete(struct{}{})
		v.ServeLoop(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// connect waits for the holder and, session-scoped, opens v's session to it.
func (h *holder) connect(v *VPE, p *sim.Proc) (*Session, error) {
	h.ready.Wait(p)
	if !h.session {
		return nil, nil
	}
	return v.CreateSession(p, holderService, nil)
}

// obtain takes the holder's capability into v's space.
func (h *holder) obtain(v *VPE, p *sim.Proc) error {
	sess, err := h.connect(v, p)
	if err != nil {
		return err
	}
	if sess == nil {
		_, err = v.ObtainFrom(p, h.v.ID, h.sel)
	} else {
		_, _, err = sess.Obtain(p, nil)
	}
	return err
}

// delegate pushes v's capability at sel to the holder.
func (h *holder) delegate(v *VPE, p *sim.Proc, sel cap.Selector) error {
	sess, err := h.connect(v, p)
	if err != nil {
		return err
	}
	if sess == nil {
		_, err = v.DelegateTo(p, h.v.ID, sel)
	} else {
		_, err = sess.Delegate(p, sel, nil)
	}
	return err
}

// allocRoot is the usual setup: a fresh root memory capability.
func allocRoot(t *testing.T) func(v *VPE, p *sim.Proc) cap.Selector {
	return func(v *VPE, p *sim.Proc) cap.Selector {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
		}
		return sel
	}
}

// TestInterferenceOrphaned: the requester of a group-spanning obtain is
// killed while the inter-kernel call is in flight. The owner's tree briefly
// holds an orphaned child, which the requester's kernel removes via a
// notification (paper §4.3.2, case 1).
func TestInterferenceOrphaned(t *testing.T) {
	forExchangeVariants(t, func(t *testing.T, session bool) {
		runInterferenceOrphaned(t, Config{Kernels: 2, UserPEs: 2}, session)
	})
}

// TestInterferenceOrphanedBatched: the same race with the obtain riding
// the batched transport — aggregation delays the request but must not
// change the outcome.
func TestInterferenceOrphanedBatched(t *testing.T) {
	forExchangeVariants(t, func(t *testing.T, session bool) {
		runInterferenceOrphaned(t, Config{
			Kernels:     2,
			UserPEs:     2,
			IKCBatching: IKCBatching{Exchange: true, ServiceQuery: true},
		}, session)
	})
}

func runInterferenceOrphaned(t *testing.T, cfg Config, session bool) {
	t.Helper()
	s := MustNew(cfg)
	t.Cleanup(s.Close)
	var requester *VPE
	// Kill the requester exactly while the owner is asked for consent —
	// guaranteed to be inside the obtain's inter-kernel window.
	owner := spawnHolder(t, s, 2, session, allocRoot(t), func() { requester.Kill() })
	var obtErr error
	requester, _ = s.SpawnOn(3, "req", func(v *VPE, p *sim.Proc) {
		obtErr = owner.obtain(v, p)
	})
	s.Run()
	if obtErr != ErrVPEGone {
		t.Fatalf("obtain err = %v, want ErrVPEGone", obtErr)
	}
	// No orphan may remain: the owner's capability has no children and the
	// requester's kernel holds no mem cap for it.
	k0, k1 := s.Kernel(0), s.Kernel(1)
	for _, key := range k0.store.Keys() {
		c := k0.store.Lookup(key)
		if _, ok := c.Object.(*cap.MemObject); ok && c.NumChildren() != 0 {
			t.Fatalf("orphaned child left behind: %v", c)
		}
	}
	if n := ownedMemCaps(s, requester.ID); n != 0 {
		t.Fatalf("dead requester still owns %d mem caps", n)
	}
	if k0.Stats().Orphans+k1.Stats().Orphans == 0 {
		t.Fatal("orphan cleanup not recorded")
	}
	checkAudit(t, s)
}

// TestInterferenceInvalid: the delegator's capability is revoked while a
// group-spanning delegate is in flight. Without the two-way handshake the
// receiver would keep a live capability with no parent link; the handshake
// must abort the delegation instead (paper §4.3.2, case 2).
func TestInterferenceInvalid(t *testing.T) {
	forExchangeVariants(t, func(t *testing.T, session bool) {
		runInterferenceInvalid(t, IKCBatching{}, session)
	})
}

// TestInterferenceInvalidBatched: the delegate handshake must survive a
// mid-flight revocation also when step 1 travels in a batched envelope.
func TestInterferenceInvalidBatched(t *testing.T) {
	forExchangeVariants(t, func(t *testing.T, session bool) {
		runInterferenceInvalid(t, IKCBatching{Exchange: true, ServiceQuery: true}, session)
	})
}

func runInterferenceInvalid(t *testing.T, b IKCBatching, session bool) {
	t.Helper()
	cost := DefaultCostModel()
	cost.VPEAccept = 50_000 // widen the in-flight window so the revoke wins
	s := MustNew(Config{Kernels: 2, UserPEs: 4, Cost: &cost, IKCBatching: b})
	defer s.Close()

	rootReady := sim.NewFuture[cap.Selector](s.Eng)
	revokeNow := sim.NewFuture[struct{}](s.Eng)

	// Root owner (kernel 0): revokes the root when signalled.
	rootOwner, _ := s.SpawnOn(2, "root", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		rootReady.Complete(sel)
		revokeNow.Wait(p)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
		}
	})
	// Receiver (kernel 1): triggers the root revocation from inside its
	// consent, i.e. exactly during the delegate's handshake.
	receiver := spawnHolder(t, s, 4, session, nil, func() {
		if !revokeNow.Done() {
			revokeNow.Complete(struct{}{})
		}
	})
	// Delegator (kernel 0): obtains a child of the root, then delegates it
	// across groups.
	var delErr error
	s.SpawnOn(3, "delegator", func(v *VPE, p *sim.Proc) {
		rootSel := rootReady.Wait(p)
		childSel, err := v.ObtainFrom(p, rootOwner.ID, rootSel)
		if err != nil {
			t.Errorf("obtain: %v", err)
			return
		}
		delErr = receiver.delegate(v, p, childSel)
	})
	s.Run()

	if delErr == nil {
		t.Fatal("delegate succeeded although its parent was revoked mid-flight")
	}
	// The whole mem subtree must be gone everywhere — the receiver's kernel
	// included: no invalid capability survived there.
	if n := memCapsEverywhere(s); n != 0 {
		t.Fatalf("%d mem caps survived", n)
	}
	checkAudit(t, s)
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
	forExchangeVariants(t, func(t *testing.T, session bool) {
		s := MustNew(Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{}})
		defer s.Close()
		lost := &dropOnce{src: 0, dst: 1, size: ikcRepBytes}
		s.Net.SetInjector(lost)

		rootReady := sim.NewFuture[cap.Selector](s.Eng)
		revokeNow := sim.NewFuture[struct{}](s.Eng)
		rootOwner, _ := s.SpawnOn(2, "root", func(v *VPE, p *sim.Proc) {
			sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
			rootReady.Complete(sel)
			revokeNow.Wait(p)
			// After the owner's kernel linked the child and answered, long
			// before the requester's retransmission timer fires.
			p.Sleep(rtoBase / 3)
			if err := v.Revoke(p, sel); err != nil {
				t.Errorf("revoke: %v", err)
			}
		})
		// The owner (kernel 0) hands out a child of the root; being asked is
		// the moment the exchange's reply gets lost and the revoke is set off.
		owner := spawnHolder(t, s, 3, session, func(v *VPE, p *sim.Proc) cap.Selector {
			sel, err := v.ObtainFrom(p, rootOwner.ID, rootReady.Wait(p))
			if err != nil {
				t.Errorf("owner's obtain: %v", err)
			}
			return sel
		}, func() {
			lost.armed = true
			revokeNow.Complete(struct{}{})
		})
		var obtErr error
		s.SpawnOn(4, "req", func(v *VPE, p *sim.Proc) {
			obtErr = owner.obtain(v, p)
		})
		s.Run()

		if obtErr != ErrInRevocation {
			t.Errorf("obtain err = %v, want ErrInRevocation", obtErr)
		}
		if st := s.TotalStats(); st.RevokedInFlight == 0 || st.ReplayedReplies == 0 {
			t.Errorf("RevokedInFlight = %d, ReplayedReplies = %d: the revoke did not race a replayed reply",
				st.RevokedInFlight, st.ReplayedReplies)
		}
		if n := memCapsEverywhere(s); n != 0 {
			t.Errorf("%d mem caps survived the revoke", n)
		}
		checkAudit(t, s)
	})
}

// TestInterferenceKilledDuringLocalConsent: within one group the kernel runs
// both halves of an exchange itself, and the consent is its only preemption
// point. A VPE killed during it — the requester of an obtain, the receiver of
// a delegate — must get nothing inserted.
func TestInterferenceKilledDuringLocalConsent(t *testing.T) {
	forExchangeVariants(t, func(t *testing.T, session bool) {
		t.Run("obtain", func(t *testing.T) {
			s := newTestSystem(t, 1, 2)
			var requester *VPE
			owner := spawnHolder(t, s, 1, session, allocRoot(t), func() { requester.Kill() })
			var err error
			requester, _ = s.SpawnOn(2, "req", func(v *VPE, p *sim.Proc) {
				err = owner.obtain(v, p)
			})
			s.Run()
			if err != ErrVPEGone {
				t.Errorf("obtain err = %v, want ErrVPEGone", err)
			}
			if n := ownedMemCaps(s, requester.ID); n != 0 {
				t.Errorf("dead requester owns %d mem caps", n)
			}
			checkAudit(t, s)
		})
		t.Run("delegate", func(t *testing.T) {
			s := newTestSystem(t, 1, 2)
			var receiver *holder
			receiver = spawnHolder(t, s, 1, session, nil, func() { receiver.v.Kill() })
			var err error
			s.SpawnOn(2, "delegator", func(v *VPE, p *sim.Proc) {
				err = receiver.delegate(v, p, allocRoot(t)(v, p))
			})
			s.Run()
			if err != ErrVPEGone {
				t.Errorf("delegate err = %v, want ErrVPEGone", err)
			}
			if n := ownedMemCaps(s, receiver.v.ID); n != 0 {
				t.Errorf("dead receiver owns %d mem caps", n)
			}
			checkAudit(t, s)
		})
	})
}

// TestInterferenceIncomplete: two revocations of overlapping subtrees
// (A1 -> B2 -> C1, revoke A and revoke B concurrently) must both return
// only after the entire affected subtree is deleted everywhere — no
// acknowledgements of incomplete revokes (paper §4.3.1/4.3.3).
func TestInterferenceIncomplete(t *testing.T) {
	s := newTestSystem(t, 2, 3)
	// A owned by vA on kernel 0, B by vB on kernel 1, C by vC on kernel 0.
	futA := sim.NewFuture[cap.Selector](s.Eng)
	futB := sim.NewFuture[cap.Selector](s.Eng)
	futC := sim.NewFuture[struct{}](s.Eng)

	var vA, vB, vC *VPE
	var selA, selB cap.Selector
	checkedA, checkedB := false, false

	vA, _ = s.SpawnOn(2, "A", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		selA = sel
		futA.Complete(sel)
		futC.Wait(p) // wait until the chain exists
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke A: %v", err)
			return
		}
		// On return, the *entire* chain must be gone from every kernel.
		if n := memCapsEverywhere(s); n != 0 {
			t.Errorf("revoke A acknowledged with %d caps left", n)
		}
		checkedA = true
	})
	vB, _ = s.SpawnOn(4, "B", func(v *VPE, p *sim.Proc) { // PE 4 -> kernel 1
		a := futA.Wait(p)
		sel, err := v.ObtainFrom(p, vA.ID, a)
		if err != nil {
			t.Errorf("obtain B: %v", err)
			return
		}
		selB = sel
		futB.Complete(sel)
		futC.Wait(p)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke B: %v", err)
			return
		}
		// B's subtree (B and C) must be gone everywhere.
		if got := ownedMemCaps(s, vB.ID) + ownedMemCaps(s, vC.ID); got != 0 {
			t.Errorf("revoke B acknowledged with its subtree alive (%d caps)", got)
		}
		checkedB = true
	})
	vC, _ = s.SpawnOn(3, "C", func(v *VPE, p *sim.Proc) { // PE 3 -> kernel 0
		b := futB.Wait(p)
		if _, err := v.ObtainFrom(p, vB.ID, b); err != nil {
			t.Errorf("obtain C: %v", err)
			return
		}
		futC.Complete(struct{}{})
	})
	s.Run()
	_ = selA
	_ = selB
	if !checkedA || !checkedB {
		t.Fatal("a revoke never returned")
	}
	if n := memCapsEverywhere(s); n != 0 {
		t.Fatalf("%d mem caps survived", n)
	}
	checkAudit(t, s)
}

// TestInterferencePointless: exchanges of capabilities that are in
// revocation are denied immediately (the mark phase makes them visible),
// preventing pointless exchanges.
func TestInterferencePointless(t *testing.T) {
	forExchangeVariants(t, func(t *testing.T, session bool) {
		s := newTestSystem(t, 2, 4)
		futRoot := sim.NewFuture[cap.Selector](s.Eng)
		goRevoke := sim.NewFuture[struct{}](s.Eng)

		rootV, _ := s.SpawnOn(2, "root", func(v *VPE, p *sim.Proc) {
			sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
			futRoot.Complete(sel)
			goRevoke.Wait(p)
			if err := v.Revoke(p, sel); err != nil {
				t.Errorf("revoke: %v", err)
			}
		})
		// Middle holder on the other kernel: obtains from root and hands its
		// copy on.
		mid := spawnHolder(t, s, 4, session, func(v *VPE, p *sim.Proc) cap.Selector {
			sel, err := v.ObtainFrom(p, rootV.ID, futRoot.Wait(p))
			if err != nil {
				t.Errorf("obtain mid: %v", err)
			}
			return sel
		}, func() {})
		// A third party tries to obtain the middle capability while the
		// revocation is running.
		var lateErr error
		s.SpawnOn(3, "late", func(v *VPE, p *sim.Proc) {
			mid.ready.Wait(p)
			goRevoke.Complete(struct{}{})
			// Give the revocation a head start so the mark phase reached mid.
			p.Sleep(30_000)
			lateErr = mid.obtain(v, p)
		})
		s.Run()
		if lateErr != ErrInRevocation && lateErr != ErrNoSuchCap {
			t.Fatalf("err = %v, want ErrInRevocation (or ErrNoSuchCap after sweep)", lateErr)
		}
		if n := memCapsEverywhere(s); n != 0 {
			t.Fatalf("%d mem caps survived the revoke", n)
		}
		checkAudit(t, s)
	})
}

// memCapsEverywhere counts memory capabilities across all kernels.
func memCapsEverywhere(s *System) int {
	n := 0
	for _, k := range s.kernels {
		for _, key := range k.store.Keys() {
			if _, ok := k.store.Lookup(key).Object.(*cap.MemObject); ok {
				n++
			}
		}
	}
	return n
}

// ownedMemCaps counts memory capabilities owned by one VPE anywhere.
func ownedMemCaps(s *System, vpe int) int {
	n := 0
	for _, k := range s.kernels {
		for _, c := range k.store.VPECaps(vpe) {
			if _, ok := c.Object.(*cap.MemObject); ok {
				n++
			}
		}
	}
	return n
}

// TestExitRevokesEverything: a VPE's exit revokes all its capabilities,
// including children delegated to other kernels.
func TestExitRevokesEverything(t *testing.T) {
	s := newTestSystem(t, 2, 2)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	obtained := sim.NewFuture[struct{}](s.Eng)
	owner, _ := s.SpawnOn(2, "owner", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		ready.Complete(sel)
		obtained.Wait(p)
		v.Exit(p)
	})
	s.SpawnOn(3, "peer", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		if _, err := v.ObtainFrom(p, owner.ID, sel); err != nil {
			t.Errorf("obtain: %v", err)
		}
		obtained.Complete(struct{}{})
	})
	s.Run()
	if !owner.exited {
		t.Fatal("owner not exited")
	}
	if n := memCapsEverywhere(s); n != 0 {
		t.Fatalf("%d mem caps survived exit", n)
	}
	// The owner's entire capability space must be empty.
	if got := len(s.Kernel(0).store.VPECaps(owner.ID)); got != 0 {
		t.Fatalf("owner still holds %d caps", got)
	}
	checkAudit(t, s)
}
