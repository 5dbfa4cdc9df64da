package core

import (
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Tests for the unified IKC transport: cross-operation batching of
// capability exchange and service queries, envelopes on the wire in both
// directions, and bit-reproducibility of batched configurations.

// wireStats sums the inter-kernel wire traffic of a run.
type wireStats struct {
	ikcSent       uint64 // request-direction wire messages (envelope counts once)
	ikcBatched    uint64 // requests that rode inside an envelope
	ikcBatches    uint64 // request envelopes sent
	ikcRepSent    uint64 // reply-direction wire messages (envelope counts once)
	ikcRepBatched uint64 // replies that rode inside an envelope
	ikcRepBatches uint64 // reply envelopes sent
	nocMsgs       uint64 // every NoC delivery event (incl. syscalls, replies)
}

// envelopes reports whether envelopes travelled in both directions.
func (w wireStats) envelopes() bool {
	return w.ikcBatches > 0 && w.ikcBatched > 0 && w.ikcRepBatches > 0 && w.ikcRepBatched > 0
}

func gatherWire(s *System) wireStats {
	var w wireStats
	for ki := 0; ki < s.Kernels(); ki++ {
		st := s.Kernel(ki).Stats()
		w.ikcSent += st.IKCSent
		w.ikcBatched += st.IKCBatched
		w.ikcBatches += st.IKCBatches
		w.ikcRepSent += st.IKCRepSent
		w.ikcRepBatched += st.IKCRepBatched
		w.ikcRepBatches += st.IKCRepBatches
	}
	w.nocMsgs = s.Net.Stats().Messages
	return w
}

// runFanoutObtain spreads n obtainers over the kernels of cfg and lets each
// obtain the same root capability (a group-spanning obtain for every VPE
// outside the root's group). It returns the system after the run.
func runFanoutObtain(t *testing.T, cfg Config, n int) *System {
	t.Helper()
	s := spawnFanoutObtain(t, cfg, n)
	s.Run()
	return s
}

// spawnFanoutObtain is runFanoutObtain without the run.
func spawnFanoutObtain(t *testing.T, cfg Config, n int) *System {
	t.Helper()
	s := MustNew(cfg)
	t.Cleanup(s.Close)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	root, err := s.SpawnOn(s.userPEs[0], "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
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
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestExchangeBatchingReducesMessages: with exchange batching on, a
// spanning obtain fan-out needs strictly fewer inter-kernel wire messages
// and strictly fewer NoC delivery events, and requests and replies travel
// in envelopes.
func TestExchangeBatchingReducesMessages(t *testing.T) {
	const kids = 12
	run := func(b IKCBatching) (wireStats, int) {
		s := runFanoutObtain(t, Config{Kernels: 4, UserPEs: kids + 7, IKCBatching: b}, kids)
		return gatherWire(s), MemCapsEverywhere(s)
	}
	plain, plainCaps := run(IKCBatching{})
	batched, batchedCaps := run(IKCBatching{Exchange: true})

	if plainCaps != batchedCaps {
		t.Fatalf("batched run created %d mem caps, plain %d", batchedCaps, plainCaps)
	}
	if batched.ikcSent >= plain.ikcSent {
		t.Fatalf("exchange batching did not reduce IKC messages: %d vs %d", batched.ikcSent, plain.ikcSent)
	}
	if batched.nocMsgs >= plain.nocMsgs {
		t.Fatalf("exchange batching did not reduce NoC deliveries: %d vs %d", batched.nocMsgs, plain.nocMsgs)
	}
	if !batched.envelopes() {
		t.Fatalf("envelopes missing from the batched run: %+v", batched)
	}
	if plain.ikcBatches+plain.ikcBatched+plain.ikcRepBatches+plain.ikcRepBatched != 0 {
		t.Fatalf("unbatched run produced envelopes: %+v", plain)
	}
}

// TestExchangeBatchingCorrect: a batched fan-out obtain followed by a
// batched tree revocation leaves no capability behind and keeps the
// mapping-database invariants.
func TestExchangeBatchingCorrect(t *testing.T) {
	const kids = 9
	cfg := Config{
		Kernels:     4,
		UserPEs:     kids + 7,
		IKCBatching: IKCBatching{Exchange: true, ServiceQuery: true, Revoke: true},
	}
	s, _ := buildFanout(t, cfg, kids)
	if n := MemCapsEverywhere(s); n != 0 {
		t.Fatalf("%d mem caps survived batched revoke after batched obtains", n)
	}
	checkAudit(t, s)
}

// runServiceFanout registers a service on kernel 0 and lets n clients on
// other kernels open a session and perform one session-scoped obtain each
// (both group-spanning service queries).
func runServiceFanout(t *testing.T, cfg Config, n int) (*System, *uint64) {
	t.Helper()
	s := MustNew(cfg)
	t.Cleanup(s.Close)
	svcReady := sim.NewFuture[struct{}](s.Eng)
	var opened uint64
	_, err := s.SpawnOn(s.userPEs[0], "svc", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("svc alloc: %v", err)
			return
		}
		err = v.RegisterService(p, "buf", &svcFuncs{
			open: func(p *sim.Proc, clientVPE int, args any) SvcResult {
				opened++
				return SvcResult{Ident: opened}
			},
			obtain: func(p *sim.Proc, ident uint64, args any) SvcResult {
				return SvcResult{SrcSel: sel}
			},
		})
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		svcReady.Complete(struct{}{})
		v.ServeLoop(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Clients go on the PEs of the other kernels (the tail of userPEs).
	for i := 0; i < n; i++ {
		pe := s.userPEs[len(s.userPEs)-1-i]
		if _, err := s.SpawnOn(pe, "client", func(v *VPE, p *sim.Proc) {
			svcReady.Wait(p)
			sess, err := v.CreateSession(p, "buf", nil)
			if err != nil {
				t.Errorf("session: %v", err)
				return
			}
			if _, _, err := sess.Obtain(p, nil); err != nil {
				t.Errorf("sess obtain: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	return s, &opened
}

// TestServiceQueryBatchingReducesMessages: with service-query batching on,
// spanning session creation and session-scoped obtains need strictly fewer
// inter-kernel wire messages and NoC deliveries, travel in envelopes both
// ways, and every session is still established.
func TestServiceQueryBatchingReducesMessages(t *testing.T) {
	const clients = 9
	cfg := func(b IKCBatching) Config {
		return Config{Kernels: 4, UserPEs: 16, IKCBatching: b}
	}
	sPlain, openedPlain := runServiceFanout(t, cfg(IKCBatching{}), clients)
	sBatched, openedBatched := runServiceFanout(t, cfg(IKCBatching{ServiceQuery: true}), clients)

	if *openedPlain != clients || *openedBatched != clients {
		t.Fatalf("sessions opened: plain %d batched %d, want %d", *openedPlain, *openedBatched, clients)
	}
	plain, batched := gatherWire(sPlain), gatherWire(sBatched)
	if batched.ikcSent >= plain.ikcSent {
		t.Fatalf("service-query batching did not reduce IKC messages: %d vs %d", batched.ikcSent, plain.ikcSent)
	}
	if batched.nocMsgs >= plain.nocMsgs {
		t.Fatalf("service-query batching did not reduce NoC deliveries: %d vs %d", batched.nocMsgs, plain.nocMsgs)
	}
	if !batched.envelopes() {
		t.Fatalf("envelopes missing from the batched run: %+v", batched)
	}
	if plain.ikcBatches+plain.ikcRepBatches != 0 {
		t.Fatalf("unbatched run produced envelopes: %+v", plain)
	}
	checkAudit(t, sBatched)
}

// TestMaxBatchInlineFlush: a queue reaching maxBatch flushes inline, without
// waiting for its window timer. Of 2 × 16 obtainers the 16 in kernel 1's
// group obtain across kernels at one instant; their syscalls hold kernel 1's
// CPU ahead of the flush job the window timer submits to the transmit pool,
// so all 16 are queued first, and the one envelope that leaves is a full one:
// the job finds its generation gone once it has the CPU.
func TestMaxBatchInlineFlush(t *testing.T) {
	const kids = 2 * maxBatch
	cfg := Config{Kernels: 2, UserPEs: kids + 2, IKCBatching: IKCBatching{Exchange: true}}
	s := runFanoutObtain(t, cfg, kids)
	w := gatherWire(s)
	if w.ikcBatches == 0 || w.ikcBatched != maxBatch*w.ikcBatches {
		t.Fatalf("%d requests in %d envelopes, want only full envelopes of %d", w.ikcBatched, w.ikcBatches, maxBatch)
	}
	if n := MemCapsEverywhere(s); n != kids+1 {
		t.Fatalf("obtains incomplete: %d mem caps, want %d", n, kids+1)
	}
	checkAudit(t, s)
}

// TestStaleFlushDroppedBeforeCPU: a flush job whose generation leaves inline
// while the job waits behind another on the transmit pool's one thread is
// dropped when the thread takes it off the queue (kthread.Ready), not after
// the thread has queued for the CPU behind the holder that flushed it. The
// job ahead gives the CPU to a contender, which holds it for hold cycles and
// empties the queue as an inline flush does.
func TestStaleFlushDroppedBeforeCPU(t *testing.T) {
	const hold = 1000
	s := MustNew(Config{Kernels: 2, UserPEs: 2, IKCBatching: IKCBatching{Exchange: true}})
	t.Cleanup(s.Close)
	k := s.kernels[0]
	q := &sendQueue{k: k, dst: 1, reqs: []*ikcRequest{{}}, window: flushWindow}
	k.xmitPool.submit(job{kind: jobFunc, subj: jobBody(func(p *sim.Proc) {
		s.Eng.Spawn("contender", func(c *sim.Proc) {
			k.cpu.Acquire(c)
			q.reqs, q.epoch = nil, q.epoch+1
			c.Sleep(hold)
			k.cpu.Release()
		})
		k.releaseCPU(p)
		p.Sleep(hold / 4)
	})})
	k.xmitPool.submit(job{kind: jobFlush, gen: q.epoch, subj: q})
	s.RunFor(hold / 2)
	for _, f := range s.CheckQuiescent() {
		t.Errorf("mid-run: %s", f)
	}
	s.Run()
	checkAudit(t, s)
}

// TestQuiescentNamesWaitingFlush: a batched machine stopped while a window
// timer's flush job waits for the CPU behind the syscalls that filled the
// queue reports the job as the transmit pool's thread's, and drains clean.
func TestQuiescentNamesWaitingFlush(t *testing.T) {
	const kids = 8
	s := spawnFanoutObtain(t, Config{Kernels: 2, UserPEs: 2 * kids, IKCBatching: IKCBatching{Exchange: true}}, 2*kids-1)
	const want = "k1/xmit1: envelope flush, await-cpu"
	found := false
	for until := sim.Time(0); s.Eng.Pending() > 0 && !found; {
		until += 16
		s.Eng.RunUntil(until)
		for _, f := range s.CheckQuiescent() {
			found = found || strings.HasPrefix(f, want)
		}
	}
	if !found {
		t.Fatalf("no stop of the run reported %q", want)
	}
	s.Run()
	if n := MemCapsEverywhere(s); n != 2*kids {
		t.Fatalf("obtains incomplete: %d mem caps, want %d", n, 2*kids)
	}
	checkAudit(t, s)
}

// TestReplyBatchingReducesMessages: the symmetric transport — with
// exchange batching on, the replies to a spanning obtain fan-out coalesce
// into reply envelopes, so the reply direction needs strictly fewer wire
// messages too (the request direction was already pinned by
// TestExchangeBatchingReducesMessages).
func TestReplyBatchingReducesMessages(t *testing.T) {
	const kids = 12
	run := func(b IKCBatching) (wireStats, int) {
		s := runFanoutObtain(t, Config{Kernels: 4, UserPEs: kids + 7, IKCBatching: b}, kids)
		return gatherWire(s), MemCapsEverywhere(s)
	}
	plain, plainCaps := run(IKCBatching{})
	batched, batchedCaps := run(IKCBatching{Exchange: true})

	if plainCaps != batchedCaps {
		t.Fatalf("batched run created %d mem caps, plain %d", batchedCaps, plainCaps)
	}
	if batched.ikcRepSent >= plain.ikcRepSent {
		t.Fatalf("reply batching did not reduce reply messages: %d vs %d",
			batched.ikcRepSent, plain.ikcRepSent)
	}
	if batched.ikcRepBatches == 0 || batched.ikcRepBatched == 0 {
		t.Fatalf("no reply envelopes recorded: batches=%d batched=%d",
			batched.ikcRepBatches, batched.ikcRepBatched)
	}
	if plain.ikcRepBatches != 0 || plain.ikcRepBatched != 0 {
		t.Fatalf("unbatched run produced reply envelopes: batches=%d batched=%d",
			plain.ikcRepBatches, plain.ikcRepBatched)
	}
	// The symmetric transport's point: total wire traffic (both directions)
	// drops below what request-only batching achieved, i.e. the reply
	// direction no longer dominates.
	if total := batched.ikcSent + batched.ikcRepSent; total >= plain.ikcSent {
		t.Fatalf("batched total (req+rep = %d) not below plain request count alone (%d)",
			total, plain.ikcSent)
	}
}

// TestReplyEnvelopeDelegateHandshake: the delegate two-phase handshake
// survives reply batching. Several spanning delegates run concurrently so
// their handshake-step-1 replies share reply envelopes; each ack (sent
// only after the reply it depends on is demuxed) must still find its
// pendingDelegations entry, and every receiver must end up owning the
// delegated capability.
func TestReplyEnvelopeDelegateHandshake(t *testing.T) {
	const pairs = 6
	cfg := Config{
		Kernels:     2,
		UserPEs:     2 * pairs,
		IKCBatching: IKCBatching{Exchange: true, ServiceQuery: true},
	}
	s := MustNew(cfg)
	t.Cleanup(s.Close)

	// Receivers live in kernel 1's group (second half of userPEs); they
	// park forever and accept every exchange.
	receivers := make([]*VPE, pairs)
	for i := 0; i < pairs; i++ {
		v, err := s.SpawnOn(s.userPEs[pairs+i], "recv", func(v *VPE, p *sim.Proc) { p.Park() })
		if err != nil {
			t.Fatal(err)
		}
		receivers[i] = v
	}
	// Delegators live in kernel 0's group; each allocates memory and
	// delegates it to its receiver. They all start together, so the
	// delegate requests batch and so do the handshake replies.
	errs := make([]error, pairs)
	for i := 0; i < pairs; i++ {
		i := i
		if _, err := s.SpawnOn(s.userPEs[i], "dlg", func(v *VPE, p *sim.Proc) {
			sel, err := v.AllocMem(p, 4096, dtu.PermRW)
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = v.DelegateTo(p, receivers[i].ID, sel)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("delegate %d failed: %v", i, err)
		}
	}
	k1 := s.Kernel(1)
	for i, r := range receivers {
		owned := 0
		for _, c := range k1.Store().VPECaps(r.ID) {
			if _, ok := c.Object.(*cap.MemObject); ok {
				owned++
			}
		}
		if owned != 1 {
			t.Fatalf("receiver %d owns %d mem caps, want 1", i, owned)
		}
	}
	// No handshake may be left half-open, and the replies must actually
	// have ridden envelopes for the test to mean anything.
	for ki := 0; ki < s.Kernels(); ki++ {
		if n := s.Kernel(ki).pendingDelegations.Len(); n != 0 {
			t.Fatalf("kernel %d holds %d dangling pending delegations", ki, n)
		}
	}
	if w := gatherWire(s); w.ikcRepBatches == 0 {
		t.Fatal("handshake replies never rode a reply envelope")
	}
	checkAudit(t, s)
}

// TestDuplicatedEnvelopes: on a fabric that delivers every kernel message
// twice, an envelope's two arrivals are two legs of their own. Every request
// of a duplicated request envelope is dispatched once — the copy of each is
// suppressed — and a duplicated reply envelope completes each future once —
// the copy of each is a late reply, as are both arrivals of a reply the
// receiver replays for a duplicate that came after it had answered. A
// batched fan-out obtain and the tree revocation that undoes it both
// complete, and the machine drains clean.
func TestDuplicatedEnvelopes(t *testing.T) {
	const kids = 12
	cfg := Config{
		Kernels:     4,
		UserPEs:     kids + 7,
		IKCBatching: IKCBatching{Exchange: true, Revoke: true},
		Faults:      &fault.Plan{Seed: 1, Dup: 1},
	}
	s, _ := buildFanout(t, cfg, kids)
	st := s.TotalStats()
	if st.IKCBatches == 0 || st.IKCRepBatches == 0 {
		t.Fatalf("no envelopes in either direction: %+v", st)
	}
	if st.Retransmits != 0 {
		t.Fatalf("%d retransmits: the counts below assume one send per request", st.Retransmits)
	}
	requests := st.IKCBatched + st.IKCSent - st.IKCBatches
	if st.DupSuppressed != requests {
		t.Errorf("%d duplicates suppressed, want one per request, %d", st.DupSuppressed, requests)
	}
	replies := st.IKCRepBatched + st.IKCRepSent - st.IKCRepBatches
	if want := replies + 2*st.ReplayedReplies; st.LateReplies != want {
		t.Errorf("%d late replies, want %d: the copy of each of %d replies and both arrivals of %d replays",
			st.LateReplies, want, replies, st.ReplayedReplies)
	}
	if n := MemCapsEverywhere(s); n != 0 {
		t.Errorf("%d memory capabilities survived the revocation", n)
	}
	checkAudit(t, s)
}

// TestAdaptiveFlushWindow: the drain feedback of the flush window. Lone
// spanning obtains (flushes draining a single request) shrink a queue's
// window below the flushWindow ceiling; a subsequent burst of maxBatch
// obtains, which fills an envelope, grows it back.
func TestAdaptiveFlushWindow(t *testing.T) {
	const group = maxBatch + 1 // kernel 1's group: the lone obtainer and the burst
	cfg := Config{
		Kernels:     2,
		UserPEs:     2 * group,
		IKCBatching: IKCBatching{Exchange: true},
	}
	s := MustNew(cfg)
	t.Cleanup(s.Close)
	lonePE := s.userPEs[group]
	requesterK := s.KernelOfPE(lonePE) // kernel 1, where the obtains originate

	ready := sim.NewFuture[cap.Selector](s.Eng)
	burst := sim.NewFuture[struct{}](s.Eng)
	root, err := s.SpawnOn(s.userPEs[0], "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	var afterLone sim.Duration
	if _, err := s.SpawnOn(lonePE, "lone", func(v *VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		for i := 0; i < 2; i++ {
			if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
				t.Errorf("lone obtain: %v", err)
				return
			}
			p.Sleep(5 * flushWindow) // let the link go quiet between obtains
		}
		afterLone = requesterK.peers[0].reqq[ikcObtain].window
		burst.Complete(struct{}{})
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= maxBatch; i++ {
		if _, err := s.SpawnOn(s.userPEs[group+i], "burst", func(v *VPE, p *sim.Proc) {
			burst.Wait(p)
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
				t.Errorf("burst obtain: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()

	if afterLone >= flushWindow {
		t.Fatalf("lone flushes did not shrink the window: %d (ceiling %d)",
			afterLone, flushWindow)
	}
	if afterLone < flushWindowMin {
		t.Fatalf("window %d fell below the floor %d", afterLone, flushWindowMin)
	}
	final := requesterK.peers[0].reqq[ikcObtain].window
	if final <= afterLone {
		t.Fatalf("maxBatch burst did not grow the window: %d after lone obtains, %d after burst",
			afterLone, final)
	}
}

// replyTrace runs a delegate-heavy batched scenario (spanning delegates
// whose handshake replies share envelopes, then a batched fan-out obtain
// plus revoke) and returns its deterministic fingerprint, including the
// reply-envelope counters.
func replyTrace(t *testing.T, eng *sim.Engine) [4]uint64 {
	t.Helper()
	cfg := Config{
		Kernels:     4,
		UserPEs:     19,
		IKCBatching: IKCBatching{Exchange: true, ServiceQuery: true, Revoke: true},
		Engine:      eng,
	}
	s, rev := buildFanout(t, cfg, 12)
	w := gatherWire(s)
	return [4]uint64{uint64(rev), uint64(s.Now()), w.ikcRepSent, w.ikcRepBatches}
}

// TestReplyBatchedPoolReuseDeterminism mirrors
// TestBatchedPoolReuseDeterminism for the reply direction: the
// reply-envelope counters and simulated times must be bit-identical on a
// fresh engine and on a pooled engine that already ran a different batched
// workload.
func TestReplyBatchedPoolReuseDeterminism(t *testing.T) {
	want := replyTrace(t, sim.NewEngine())
	if want[3] == 0 {
		t.Fatal("scenario produced no reply envelopes; fingerprint is vacuous")
	}

	pool := sim.NewPool()
	dirty := pool.Get()
	runFanoutObtain(t, Config{Kernels: 2, UserPEs: 8, IKCBatching: IKCBatching{Exchange: true}, Engine: dirty}, 5)
	pool.Put(dirty)

	got := replyTrace(t, pool.Get())
	if got != want {
		t.Fatalf("reply-batched run diverged on pooled engine: %v vs %v", got, want)
	}
}

// batchedTrace runs the batched fan-out scenario on the given engine and
// returns its deterministic fingerprint.
func batchedTrace(t *testing.T, eng *sim.Engine) [3]uint64 {
	t.Helper()
	cfg := Config{
		Kernels:     4,
		UserPEs:     19,
		IKCBatching: IKCBatching{Exchange: true, ServiceQuery: true, Revoke: true},
		Engine:      eng,
	}
	s, rev := buildFanout(t, cfg, 12)
	var sent uint64
	for ki := 0; ki < s.Kernels(); ki++ {
		sent += s.Kernel(ki).Stats().IKCSent
	}
	return [3]uint64{uint64(rev), uint64(s.Now()), sent}
}

// TestBatchedPoolReuseDeterminism extends the TestPoolReuseDeterminism
// pinning to a batched configuration: the same scenario must be
// bit-reproducible on a fresh engine and on a pooled engine that already
// ran a different (also batched) workload.
func TestBatchedPoolReuseDeterminism(t *testing.T) {
	want := batchedTrace(t, sim.NewEngine())

	pool := sim.NewPool()
	dirty := pool.Get()
	runFanoutObtain(t, Config{Kernels: 2, UserPEs: 8, IKCBatching: IKCBatching{Exchange: true}, Engine: dirty}, 5)
	pool.Put(dirty)

	got := batchedTrace(t, pool.Get())
	if got != want {
		t.Fatalf("batched run diverged on pooled engine: %v vs %v", got, want)
	}
}

// TestPeerRecordsOnlyForTalkingPairs: a kernel's IKC record toward another
// exists only once the two talk. In a star — every foreign kernel obtains
// from kernel 0, whose revoke then reaches each of them — exactly the
// 2(K−1) pairs of the star hold a record: each foreign kernel's toward 0
// and 0's toward each of them. This is the scale sweep's traffic, so a
// record per kernel pair would show in its live heap.
func TestPeerRecordsOnlyForTalkingPairs(t *testing.T) {
	const kernels = 8
	s := MustNew(Config{Kernels: kernels, UserPEs: 2 * kernels})
	t.Cleanup(s.Close)
	pes := make([]int, kernels) // one user PE of each kernel
	for i := len(s.userPEs) - 1; i >= 0; i-- {
		pes[s.KernelOfPE(s.userPEs[i]).ID()] = s.userPEs[i]
	}
	ready := sim.NewFuture[cap.Selector](s.Eng)
	var obtained sim.WaitGroup
	obtained.Add(kernels - 1)
	revoked := false
	root, err := s.SpawnOn(pes[0], "root", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		ready.Complete(sel)
		obtained.Wait(p)
		if err := v.Revoke(p, sel); err != nil {
			t.Errorf("revoke: %v", err)
		}
		revoked = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for g := 1; g < kernels; g++ {
		if _, err := s.SpawnOn(pes[g], "leaf", func(v *VPE, p *sim.Proc) {
			if _, err := v.ObtainFrom(p, root.ID, ready.Wait(p)); err != nil {
				t.Errorf("obtain: %v", err)
			}
			obtained.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if !revoked || MemCapsEverywhere(s) != 0 {
		t.Fatalf("revoked=%v, %d memory capabilities left", revoked, MemCapsEverywhere(s))
	}
	checkAudit(t, s)
	records := 0
	for _, k := range s.kernels {
		for dst, pr := range k.peers {
			if pr == nil {
				continue
			}
			records++
			if k.id != 0 && dst != 0 {
				t.Errorf("kernel %d holds a record toward kernel %d, which it never talked to", k.id, dst)
			}
		}
	}
	if records != 2*(kernels-1) {
		t.Errorf("%d peer records, want %d", records, 2*(kernels-1))
	}
}
