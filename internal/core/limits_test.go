package core

import (
	"testing"

	"repro/internal/cap"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// TestRevokeThreadBound: no matter how many cross-kernel revocations hit a
// kernel concurrently, at most RevokeThreads revoke workers are ever
// spawned — the paper's §4.3.3 denial-of-service defense.
func TestRevokeThreadBound(t *testing.T) {
	const holders = 10
	s := newTestSystem(t, 2, 2*holders+2)
	// Kernel 0 hosts the roots' owners; each holder on kernel 1 obtains one
	// cap, then all owners revoke at the same instant: kernel 1 receives a
	// storm of revoke requests.
	var owners [holders]*VPE
	readies := make([]*sim.Future[cap.Selector], holders)
	var attached sim.WaitGroup
	attached.Add(holders)
	for i := 0; i < holders; i++ {
		i := i
		readies[i] = sim.NewFuture[cap.Selector](s.Eng)
		owners[i], _ = s.SpawnOn(s.userPEs[i], "owner", func(v *VPE, p *sim.Proc) {
			sel, _ := v.AllocMem(p, 64, dtu.PermRW)
			readies[i].Complete(sel)
			attached.Wait(p)
			if err := v.Revoke(p, sel); err != nil {
				t.Errorf("revoke %d: %v", i, err)
			}
		})
		s.SpawnOn(s.userPEs[holders+i], "holder", func(v *VPE, p *sim.Proc) {
			sel := readies[i].Wait(p)
			if _, err := v.ObtainFrom(p, owners[i].ID, sel); err != nil {
				t.Errorf("obtain %d: %v", i, err)
			}
			attached.Done()
		})
	}
	s.Run()
	for ki := 0; ki < 2; ki++ {
		k := s.Kernel(ki)
		if k.revokePool.spawned > RevokeThreads {
			t.Fatalf("kernel %d spawned %d revoke threads, bound is %d",
				ki, k.revokePool.spawned, RevokeThreads)
		}
	}
	if n := MemCapsEverywhere(s); n != 0 {
		t.Fatalf("%d caps survived the revoke storm", n)
	}
}

// TestInflightLimitThrottlesSenders: a burst of group-spanning operations
// between one kernel pair never exceeds MaxInflight unprocessed requests;
// excess senders park on the in-flight semaphore instead of losing
// messages.
func TestInflightLimitThrottlesSenders(t *testing.T) {
	const peers = 12
	s := newTestSystem(t, 2, peers+2)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	// One owner on kernel 0; many requesters on kernel 1 obtain at once.
	owner, _ := s.SpawnOn(s.userPEs[0], "owner", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 64, dtu.PermRW)
		ready.Complete(sel)
	})
	okCount := 0
	var reqPEs []int
	for _, pe := range s.userPEs {
		if s.KernelOfPE(pe).ID() == 1 {
			reqPEs = append(reqPEs, pe)
		}
	}
	if len(reqPEs) < peers/2 {
		t.Fatalf("not enough kernel-1 PEs: %d", len(reqPEs))
	}
	for _, pe := range reqPEs {
		s.SpawnOn(pe, "req", func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, owner.ID, sel); err == nil {
				okCount++
			}
		})
	}
	s.Run()
	if okCount != len(reqPEs) {
		t.Fatalf("only %d/%d obtains succeeded", okCount, len(reqPEs))
	}
	// No messages may have been lost anywhere (the limit's whole purpose).
	if lost := s.Net.Stats().Lost; lost != 0 {
		t.Fatalf("%d messages lost despite in-flight limiting", lost)
	}
	// The sender-side semaphore is back to its full budget.
	if sem := &s.Kernel(1).peers[0].credits; sem.Count() != MaxInflight {
		t.Fatalf("in-flight budget = %d, want %d", sem.Count(), MaxInflight)
	}
}

// TestDelegateSess pushes a client capability into a session, local and
// spanning: the service ends up owning a child of the client's capability.
func TestDelegateSess(t *testing.T) {
	for name, kernels := range map[string]int{"local": 1, "spanning": 2} {
		t.Run(name, func(t *testing.T) {
			s := newTestSystem(t, kernels, 2)
			var svcVPE *VPE
			svcReady := sim.NewFuture[struct{}](s.Eng)
			var gotObj cap.Object
			svcVPE, _ = s.SpawnOn(s.userPEs[0], "svc", func(v *VPE, p *sim.Proc) {
				err := v.RegisterService(p, "buf", &svcFuncs{
					open: func(p *sim.Proc, clientVPE int, args any) SvcResult {
						return SvcResult{Ident: 7}
					},
					delegate: func(p *sim.Proc, ident uint64, args any, obj cap.Object) SvcResult {
						gotObj = obj
						return SvcResult{Accept: true, Reply: "ack"}
					},
				})
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				svcReady.Complete(struct{}{})
				v.ServeLoop(p)
			})
			var delErr error
			var reply any
			s.SpawnOn(s.userPEs[len(s.userPEs)-1], "client", func(v *VPE, p *sim.Proc) {
				svcReady.Wait(p)
				sess, err := v.CreateSession(p, "buf", nil)
				if err != nil {
					t.Errorf("session: %v", err)
					return
				}
				sel, err := v.AllocMem(p, 4096, dtu.PermRW)
				if err != nil {
					t.Errorf("alloc: %v", err)
					return
				}
				reply, delErr = sess.Delegate(p, sel, "here")
			})
			s.Run()
			if delErr != nil {
				t.Fatalf("delegate-sess: %v", delErr)
			}
			if reply != "ack" {
				t.Fatalf("service reply = %v", reply)
			}
			if _, ok := gotObj.(*cap.MemObject); !ok {
				t.Fatalf("service saw %T, want *cap.MemObject", gotObj)
			}
			// The service VPE owns a mem cap child now.
			var svcMem int
			for ki := 0; ki < s.Kernels(); ki++ {
				for _, c := range s.Kernel(ki).store.VPECaps(svcVPE.ID) {
					if _, ok := c.Object.(*cap.MemObject); ok && c.Parent != 0 {
						svcMem++
					}
				}
			}
			if svcMem != 1 {
				t.Fatalf("service mem caps = %d, want 1", svcMem)
			}
			checkAudit(t, s)
		})
	}
}

// TestSessionCloseSevers: revoking the session capability removes it from
// the service capability's children.
func TestSessionCloseSevers(t *testing.T) {
	s := newTestSystem(t, 2, 2)
	svcReady := sim.NewFuture[struct{}](s.Eng)
	var svcVPE *VPE
	svcVPE, _ = s.SpawnOn(s.userPEs[0], "svc", func(v *VPE, p *sim.Proc) {
		err := v.RegisterService(p, "x", &svcFuncs{
			open: func(p *sim.Proc, clientVPE int, args any) SvcResult {
				return SvcResult{Ident: 1}
			},
		})
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		svcReady.Complete(struct{}{})
		v.ServeLoop(p)
	})
	s.SpawnOn(s.userPEs[1], "client", func(v *VPE, p *sim.Proc) {
		svcReady.Wait(p)
		sess, err := v.CreateSession(p, "x", nil)
		if err != nil {
			t.Errorf("session: %v", err)
			return
		}
		if err := sess.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	s.Run()
	// The service capability must have no children left.
	k0 := s.KernelOfPE(svcVPE.PE)
	for _, c := range k0.store.VPECaps(svcVPE.ID) {
		if _, ok := c.Object.(*cap.ServiceObject); ok && c.NumChildren() != 0 {
			t.Fatalf("service cap still has %d children after session close", c.NumChildren())
		}
	}
	checkAudit(t, s)
}

// TestNoMessageLossUnderLoad: a full application-style run loses no DTU
// messages anywhere — the architectural requirement the in-flight limits
// and credit system exist to guarantee.
func TestNoMessageLossUnderLoad(t *testing.T) {
	s := newTestSystem(t, 4, 24)
	ready := sim.NewFuture[cap.Selector](s.Eng)
	owner, _ := s.SpawnOn(s.userPEs[0], "owner", func(v *VPE, p *sim.Proc) {
		sel, _ := v.AllocMem(p, 4096, dtu.PermRW)
		ready.Complete(sel)
	})
	for i := 1; i < 24; i++ {
		s.SpawnOn(s.userPEs[i], "worker", func(v *VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			mine, err := v.ObtainFrom(p, owner.ID, sel)
			if err != nil {
				t.Errorf("obtain: %v", err)
				return
			}
			if err := v.Revoke(p, mine); err != nil {
				t.Errorf("revoke: %v", err)
			}
		})
	}
	s.Run()
	if lost := s.Net.Stats().Lost; lost != 0 {
		t.Fatalf("%d messages lost", lost)
	}
	checkAudit(t, s)
}

// TestCreateSessionEndpointBudget: a VPE has six session endpoints, and the
// seventh CreateSession is refused before anything is created — the service
// is not asked to open a session, no session key is linked under the service
// capability, no session capability lands in the client's space. (The check
// used to run last, after all three.)
func TestCreateSessionEndpointBudget(t *testing.T) {
	const budget = vpeLastSessionEP - vpeFirstSessionEP + 1
	for name, kernels := range map[string]int{"local": 1, "spanning": 2} {
		t.Run(name, func(t *testing.T) {
			s := newTestSystem(t, kernels, 2)
			svcReady := sim.NewFuture[struct{}](s.Eng)
			opens := 0
			svc, _ := s.SpawnOn(s.userPEs[0], "svc", func(v *VPE, p *sim.Proc) {
				err := v.RegisterService(p, "svc", &svcFuncs{
					open: func(*sim.Proc, int, any) SvcResult {
						opens++
						return SvcResult{Ident: uint64(opens)}
					},
				})
				if err != nil {
					t.Error(err)
				}
				svcReady.Complete(struct{}{})
				v.ServeLoop(p)
			})
			sessions := 0
			client, _ := s.SpawnOn(s.userPEs[len(s.userPEs)-1], "client", func(v *VPE, p *sim.Proc) {
				svcReady.Wait(p)
				for i := 0; i < budget+1; i++ {
					_, err := v.CreateSession(p, "svc", nil)
					switch {
					case err == nil:
						sessions++
					case i < budget || err != ErrBadArgs:
						t.Errorf("create %d: %v", i, err)
					}
				}
			})
			s.Run()
			if sessions != budget || opens != budget {
				t.Fatalf("%d sessions created, the service opened %d; want %d of each", sessions, opens, budget)
			}
			held := 0
			for _, c := range client.kernel.store.VPECaps(client.ID) {
				if _, ok := c.Object.(*cap.SessionObject); ok {
					held++
				}
			}
			if held != budget {
				t.Fatalf("client holds %d session capabilities, want %d", held, budget)
			}
			linked := 0
			for _, c := range svc.kernel.store.VPECaps(svc.ID) {
				if _, ok := c.Object.(*cap.ServiceObject); ok {
					linked = len(c.AppendChildren(nil))
				}
			}
			if linked != budget {
				t.Fatalf("%d session keys linked under the service capability, want %d", linked, budget)
			}
			checkAudit(t, s)
		})
	}
}
