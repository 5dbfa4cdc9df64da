package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// spanningObtain spawns, on a machine built from cfg, an owner VPE on the
// first user PE that allocates a memory capability and a client VPE on the
// last that obtains it once, across kernels; errs collects what the
// client's obtains return.
func spanningObtain(t *testing.T, cfg Config) (s *System, owner, client *Kernel, errs *[]error) {
	t.Helper()
	s = MustNew(cfg)
	t.Cleanup(s.Close)
	pes := s.UserPEs()
	owner, client = s.KernelOfPE(pes[0]), s.KernelOfPE(pes[len(pes)-1])
	if owner == client {
		t.Fatal("owner and client share a kernel")
	}
	ready := sim.NewFuture[cap.Selector](s.Eng)
	v, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
		}
		ready.Complete(sel)
	})
	if err != nil {
		t.Fatal(err)
	}
	errs = new([]error)
	if _, err := s.SpawnOn(pes[len(pes)-1], "client", func(c *VPE, p *sim.Proc) {
		_, err := c.ObtainFrom(p, v.ID, ready.Wait(p))
		*errs = append(*errs, err)
	}); err != nil {
		t.Fatal(err)
	}
	return s, owner, client, errs
}

// TestQuiescentNamesThreadAwaitingReply: a kernel thread parked on an
// inter-kernel reply is a finding of the audit, named by what it waits for.
// A two-kernel spanning obtain, stopped after its request has left and
// before its reply lands, holds the client's syscall thread in its reply
// slot and the request in its kernel's pending table; run to the end, the
// call completes once and the machine is quiescent.
func TestQuiescentNamesThreadAwaitingReply(t *testing.T) {
	s, _, client, errs := spanningObtain(t, Config{Kernels: 2, UserPEs: 4})
	awaiting := func() (thread, pending bool) {
		for _, f := range s.CheckQuiescent() {
			thread = thread || strings.HasSuffix(f, "syscall obtainfrom, await-reply")
			pending = pending || f == fmt.Sprintf("k%d: 1 request(s) still awaiting a reply", client.id)
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
	if len(*errs) != 1 || (*errs)[0] != nil {
		t.Fatalf("the obtain returned %v, want one success", *errs)
	}
	checkAudit(t, s)
}

// TestDuplicatedReplyCompletesCallOnce: in reliable mode on a fabric that
// duplicates every kernel message, a spanning obtain's call completes
// exactly once — the syscall returns one capability — and every other copy
// of a reply, a duplicate or the replay of a cached reply to a duplicated
// request, finds no call pending and is counted in LateReplies.
func TestDuplicatedReplyCompletesCallOnce(t *testing.T) {
	s, owner, client, errs := spanningObtain(t, Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{Seed: 1, Dup: 1}})
	s.Run()
	if len(*errs) != 1 || (*errs)[0] != nil {
		t.Fatalf("the obtain returned %v, want one success", *errs)
	}
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
					cfg := Config{Kernels: 3, IKCBatching: IKCBatching{Exchange: batched, Revoke: batched}, Faults: faults}
					s, returned := nestedChains(t, cfg, 6, obtained)
					defer s.Close()
					s.Run()
					if *returned != 18 {
						t.Errorf("%d of 18 revokes returned", *returned)
					}
					checkAudit(t, s)
					st := s.TotalStats()
					if s.reqsMade == 0 || uint64(s.reqsMade) >= st.IKCSent || len(s.reqs) != s.reqsMade {
						t.Errorf("%d request records made, %d on the free list, for %d requests sent", s.reqsMade, len(s.reqs), st.IKCSent)
					}
					if faults != nil && (st.Retransmits == 0 || st.DupSuppressed == 0) {
						t.Errorf("%d retransmits and %d duplicates suppressed: the faults did not reach the requests", st.Retransmits, st.DupSuppressed)
					}
				})
			}
		}
	}
}

// TestRequestDroppedTwicePanics: a reference dropped more often than held
// is a bug in the holders, and the second drop of a record says so.
func TestRequestDroppedTwicePanics(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 2})
	defer s.Close()
	req := s.kernels[0].request(ikcRequest{Kind: ikcRevoke})
	req.hold().drop(s)
	req.drop(s)
	if len(s.reqs) != 1 || req.refs != 0 || req.Kind != 0 {
		t.Fatalf("the last drop left %d records on the free list and the record %+v", len(s.reqs), *req)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dropping a record twice did not panic")
		}
	}()
	req.drop(s)
}
