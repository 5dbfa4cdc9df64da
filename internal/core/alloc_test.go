package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// stepVPE spawns a VPE on pe that runs op once per call of the returned
// step function and parks in between, so step is one warmed operation
// pushed through a quiescent machine.
func stepVPE(tb testing.TB, s *System, pe int, op func(v *VPE, p *sim.Proc)) (step func()) {
	tb.Helper()
	start := sim.NewQueue[struct{}](s.Eng)
	if _, err := s.SpawnOn(pe, "stepper", func(v *VPE, p *sim.Proc) {
		for {
			start.Pop(p)
			op(v, p)
		}
	}); err != nil {
		tb.Fatal(err)
	}
	s.Run() // boot, then park
	return func() {
		start.Push(struct{}{})
		s.Run()
	}
}

// noopStepper is one no-op syscall per step on a one-kernel machine.
func noopStepper(tb testing.TB) (*System, func()) {
	s := MustNew(Config{Kernels: 1, UserPEs: 1})
	return s, stepVPE(tb, s, s.UserPEs()[0], func(v *VPE, p *sim.Proc) { v.Noop(p) })
}

// TestNoopSyscallAllocatesNothing: a warmed syscall round trip — VPE.syscall,
// DTU send, NoC, kernel pool thread, handler, reply, ack — allocates
// nothing: the messages are recycled, the kernel thread takes a typed job,
// and request and reply live in the VPE.
func TestNoopSyscallAllocatesNothing(t *testing.T) {
	s, step := noopStepper(t)
	defer s.Close()
	step()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("no-op syscall allocates %v times, want 0", allocs)
	}
}

// BenchmarkNoopSyscall is the bare syscall path; 0 allocs/op
// (TestNoopSyscallAllocatesNothing pins it).
func BenchmarkNoopSyscall(b *testing.B) {
	s, step := noopStepper(b)
	defer s.Close()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkDeriveSyscall is one local DeriveMem per op: the syscall round
// trip of BenchmarkNoopSyscall plus a five-term CPU-held stretch in the
// kernel (dispatch, lookup, link, create, reply) that the thread charges and
// settles once (TestOperationEventsAndResumes pins the switch count). The
// children accumulate under one root; the table growth is part of the op.
func BenchmarkDeriveSyscall(b *testing.B) {
	s := MustNew(Config{Kernels: 1, UserPEs: 1})
	defer s.Close()
	root := cap.NoSel
	step := stepVPE(b, s, s.UserPEs()[0], func(v *VPE, p *sim.Proc) {
		var err error
		if root == cap.NoSel {
			root, err = v.AllocMem(p, 1<<20, dtu.PermRW)
		} else {
			_, err = v.DeriveMem(p, root, 0, 4096, dtu.PermR)
		}
		if err != nil {
			b.Error(err)
		}
	})
	step()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestObtainAllocationCeilings bounds what an obtain still allocates, so
// the message path cannot quietly grow back. What is left is protocol
// state, not transport. Local, 0: the consent query rides a recycled record
// (TestKernelQueriesAllocateNothing) and the child capability is copied
// into the store's slab. Spanning, 3: the request, the reply and the reply's
// future (the in-flight record is two words of the requesting VPE). Table growth (slabs, key map,
// selector space) averages below one per obtain. The ceilings are the
// measured counts, with and without the race detector.
func TestObtainAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kernels int
		ceiling float64
	}{
		{"local", 1, 0},
		{"spanning", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := MustNew(Config{Kernels: tc.kernels, UserPEs: 2 * tc.kernels})
			defer s.Close()
			pes := s.UserPEs()
			var root cap.Selector
			owner, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
				sel, err := v.AllocMem(p, 4096, dtu.PermRW)
				if err != nil {
					t.Error(err)
				}
				root = sel
			})
			if err != nil {
				t.Fatal(err)
			}
			step := stepVPE(t, s, pes[len(pes)-1], func(v *VPE, p *sim.Proc) {
				if _, err := v.ObtainFrom(p, owner.ID, root); err != nil {
					t.Error(err)
				}
			})
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs > tc.ceiling {
				t.Fatalf("%s obtain allocates %v times, ceiling %v", tc.name, allocs, tc.ceiling)
			}
			checkAllInvariants(t, s)
		})
	}
}

// TestKernelQueriesAllocateNothing: the two questions a kernel thread parks
// on inside a syscall — the consent query to an exchange partner (askVPE)
// and the policy query to a service (queryService) — ride a recycled query
// record that is its own event on every leg, so a warmed round trip adds
// nothing to its syscall. Both operations are refused, which ends the
// syscall right after the query: whatever is measured is the query's. The
// data-plane call into the same service loop is held to the same standard.
func TestKernelQueriesAllocateNothing(t *testing.T) {
	s := MustNew(Config{Kernels: 1, UserPEs: 3})
	defer s.Close()
	pes := s.UserPEs()
	var root cap.Selector
	owner, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
		v.OnExchange = func(ExchangeQuery) ExchangeAnswer { return ExchangeAnswer{} }
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
		}
		root = sel
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnOn(pes[1], "svc", func(v *VPE, p *sim.Proc) {
		if err := v.RegisterService(p, "svc", ServiceHandlers{
			Open:    func(*sim.Proc, int, any) SvcResult { return SvcResult{Ident: 1} },
			Obtain:  func(*sim.Proc, uint64, any) SvcResult { return SvcResult{Errno: ErrDenied} },
			Request: func(_ *sim.Proc, _ uint64, args any) any { return args },
		}); err != nil {
			t.Error(err)
		}
		v.ServeLoop(p)
	}); err != nil {
		t.Fatal(err)
	}
	var sess *Session
	arg := new(int)
	op := 0
	step := stepVPE(t, s, pes[2], func(v *VPE, p *sim.Proc) {
		switch op {
		case 0:
			var err error
			if sess, err = v.CreateSession(p, "svc", nil); err != nil {
				t.Error(err)
			}
		case 1:
			if _, err := v.ObtainFrom(p, owner.ID, root); err != ErrDenied {
				t.Errorf("refused obtain returned %v", err)
			}
		case 2:
			if _, _, err := sess.Obtain(p, arg); err != ErrDenied {
				t.Errorf("refused session obtain returned %v", err)
			}
		case 3:
			if rep, err := sess.Call(p, arg); err != nil || rep != any(arg) {
				t.Errorf("call returned %v, %v", rep, err)
			}
		}
	})
	step()
	for op = 1; op <= 3; op++ {
		step()
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("operation %d allocates %v times, want 0", op, allocs)
		}
	}
	if got := len(s.kernels[0].queries); got != 1 {
		t.Errorf("%d query records on the free list, want the one that was reused throughout", got)
	}
}

// TestReplyEnvelopeFlushAllocatesNothing: once warm, flushing a reply
// envelope — its compose delay, the NoC and its arrival, which completes (here:
// counts as late) each reply in order — allocates nothing. The replies ride a
// recycled ikcWire that keeps its grown payload slice, where a vectored DTU
// send took a slice of items and a closure per envelope.
func TestReplyEnvelopeFlushAllocatesNothing(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 2, IKCBatching: IKCBatching{Exchange: true}})
	defer s.Close()
	k := s.kernels[1]
	reps := make([]ikcReply, 4)
	flush := func() {
		for i := range reps {
			k.xport.enqueueReply(0, classExchange, &reps[i])
		}
		k.xport.flushReplies(rkey{dst: 0, class: classExchange})
		s.Run()
	}
	flush()
	if allocs := testing.AllocsPerRun(100, flush); allocs != 0 {
		t.Fatalf("flushing a 4-reply envelope allocates %v times, want 0", allocs)
	}
	if got, want := s.kernels[0].Stats().LateReplies, k.Stats().IKCRepBatched; got != want || k.Stats().IKCRepBatches == 0 {
		t.Fatalf("%d replies arrived, %d were sent in %d envelopes", got, want, k.Stats().IKCRepBatches)
	}
}

// TestPooledEngineRetainsNoMessages: the message free list lives and dies
// with its Fabric. After System.Close and Pool.Put the pooled engine — its
// event slabs, lanes and proc table — must not reach the machine it last
// ran, or every recycled engine would pin a dead machine's messages. The
// witness is the payload of a message left parked in an endpoint of that
// machine: it is collected only if the whole Fabric is. (The finalizer
// cannot sit on the Fabric itself: Fabric and DTUs point at each other, and
// the runtime does not finalize a block that is part of a cycle.)
func TestPooledEngineRetainsNoMessages(t *testing.T) {
	pool := sim.NewPool()
	collected := make(chan struct{})
	eng := pool.Get()
	func() {
		s := MustNew(Config{Kernels: 2, UserPEs: 4, Engine: eng})
		pes := s.UserPEs()
		ready := sim.NewFuture[cap.Selector](s.Eng)
		owner, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
			sel, err := v.AllocMem(p, 4096, dtu.PermRW)
			if err != nil {
				t.Error(err)
			}
			ready.Complete(sel)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range pes[1:] {
			if _, err := s.SpawnOn(pe, "client", func(v *VPE, p *sim.Proc) {
				if _, err := v.ObtainFrom(p, owner.ID, ready.Wait(p)); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		witness := new([64]byte)
		runtime.SetFinalizer(witness, func(*[64]byte) { close(collected) })
		kd, a, b := s.kernels[0].dtu, s.Fab.DTU(pes[0]), s.Fab.DTU(pes[1])
		must(b.ConfigureRecv(kd, vpeLastMemEP, 2, nil))
		must(a.ConfigureSend(kd, vpeLastMemEP, pes[1], vpeLastMemEP, 1, 0))
		must(a.Send(vpeLastMemEP, witness, 64, -1, 0))
		s.Run()
		if got := s.TotalStats().Obtains; got != 3 {
			t.Fatalf("%d obtains completed, want 3", got)
		}
		if b.Stats().Received < 2 { // a syscall reply and the witness
			t.Fatal("the witness message was not delivered")
		}
		s.Close()
		pool.Put(eng)
	}()
	if pool.Get() != eng {
		t.Fatal("Put did not shelve the engine")
	}
	pool.Put(eng)
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("a message of a closed machine is still reachable from its pooled engine")
	}
}

// TestTreeRevokeAllocationCeiling bounds what a warmed local tree revoke
// allocates: nothing. The revocation's records, their marked-key lists and
// the stack its mark walk snapshots child lists onto come from the kernel's
// free list, and the syscall thread parks on its record.
func TestTreeRevokeAllocationCeiling(t *testing.T) {
	const ceiling = 0
	s := MustNew(Config{Kernels: 1, UserPEs: 1})
	defer s.Close()
	var root, mid cap.Selector
	plant := true
	step := stepVPE(t, s, s.UserPEs()[0], func(v *VPE, p *sim.Proc) {
		var err error
		switch {
		case root == cap.NoSel:
			root, err = v.AllocMem(p, 1<<20, dtu.PermRW)
		case plant: // mid, three children, two grandchildren each
			mid, err = v.DeriveMem(p, root, 0, 64<<10, dtu.PermRW)
			for i := uint64(0); i < 3 && err == nil; i++ {
				var child cap.Selector
				child, err = v.DeriveMem(p, mid, i*8192, 8192, dtu.PermRW)
				for j := uint64(0); j < 2 && err == nil; j++ {
					_, err = v.DeriveMem(p, child, j*4096, 4096, dtu.PermR)
				}
			}
		default:
			err = v.Revoke(p, mid)
		}
		if err != nil {
			t.Error(err)
		}
	})
	step()
	round := func() uint64 {
		plant = true
		step()
		plant = false
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		step()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 8; i++ {
		round()
	}
	const rounds = 50
	var total uint64
	for i := 0; i < rounds; i++ {
		total += round()
	}
	if allocs := float64(total) / rounds; allocs > ceiling {
		t.Fatalf("revoking a warmed 10-capability local tree allocates %v times, want %v", allocs, ceiling)
	}
	if got := s.kernels[0].store.Len(); got != 2 { // the VPE's own capability and root
		t.Fatalf("%d capabilities left, want 2", got)
	}
	checkAllInvariants(t, s)
}

// TestSpanningRevokeAllocationCeiling bounds a warmed revoke whose root has
// one child on the other kernel: what is left is the wire protocol of the one
// forward — the request, its reply future, the completion callback and the
// slice that holds it, and the reply — none of it revocation state. The
// ceiling is the measured count, with and without the race detector.
func TestSpanningRevokeAllocationCeiling(t *testing.T) {
	const ceiling = 5
	s := MustNew(Config{Kernels: 2, UserPEs: 4})
	defer s.Close()
	pes := s.UserPEs()
	var root, mid cap.Selector
	var ownerID int
	revoking := false
	owner := stepVPE(t, s, pes[0], func(v *VPE, p *sim.Proc) {
		var err error
		switch {
		case root == cap.NoSel:
			ownerID = v.ID
			root, err = v.AllocMem(p, 1<<20, dtu.PermRW)
		case revoking:
			err = v.Revoke(p, mid)
		default:
			mid, err = v.DeriveMem(p, root, 0, 4096, dtu.PermRW)
		}
		if err != nil {
			t.Error(err)
		}
	})
	far := stepVPE(t, s, pes[len(pes)-1], func(v *VPE, p *sim.Proc) {
		if _, err := v.ObtainFrom(p, ownerID, mid); err != nil {
			t.Error(err)
		}
	})
	owner()
	round := func() uint64 {
		revoking = false
		owner()
		far()
		revoking = true
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		owner()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 8; i++ {
		round()
	}
	const rounds = 50
	var total uint64
	for i := 0; i < rounds; i++ {
		total += round()
	}
	if allocs := float64(total) / rounds; allocs > ceiling {
		t.Fatalf("revoking a warmed root with one remote child allocates %v times, ceiling %v", allocs, ceiling)
	}
	if got := memCapsEverywhere(s); got != 1 { // root
		t.Fatalf("%d memory capabilities left, want 1", got)
	}
	checkNoLeaks(t, s)
	checkAllInvariants(t, s)
}
