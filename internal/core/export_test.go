package core

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/sim"
)

// The protocol tests play scripts (internal/script), so they live in
// package core_test; these are the few internals they read.

const (
	RTOBase       = rtoBase
	IKCRepBytes   = ikcRepBytes
	LoadedClients = loadedClients
)

// Incarnation is the kernel's incarnation number, from 1.
func (k *Kernel) Incarnation() uint32 { return k.incarnation }

// FreeXmits is how many released reliable-mode transmission records s
// keeps for reuse.
func (s *System) FreeXmits() int { return s.xmits.Idle() }

// Exited says whether the VPE exited or was killed.
func (v *VPE) Exited() bool { return v.exited }

// RequestRecords is how many inter-kernel request records s made and how
// many of them are released, kept for reuse.
func (s *System) RequestRecords() (made, free int) {
	return s.reqs.Held() + s.reqs.Idle(), s.reqs.Idle()
}

// RevokingEverywhere says whether every kernel has picked up a revoke
// request: each holds a revoke-pool thread with a job.
func (s *System) RevokingEverywhere() bool {
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

// stageNames names the wait stages TestKillKernelThreadsInEveryStage must
// find a thread parked in.
var stageNames = map[waitStage]string{stageEpilogue: "epilogue", stageJob: "job", stageJobCPU: "job-cpu", stageInner: "inner", stageCPU: "cpu"}

// NoteStages adds to seen the name of the wait stage of every thread of s's
// kernel pools that stageNames names.
func (s *System) NoteStages(seen map[string]bool) {
	for _, k := range s.kernels {
		for _, pl := range [...]*pool{&k.syscallPool, &k.ikcPool, &k.revokePool, &k.completionPool, &k.xmitPool} {
			for th := pl.threads; th != nil; th = th.next {
				if name, ok := stageNames[th.stage]; ok {
					seen[name] = true
				}
			}
		}
	}
}

// ReliableState counts the peer records of s's kernels and names each
// kernel that runs the reliable layer or holds its state toward a peer.
func (s *System) ReliableState() (records int, found []string) {
	for ki, k := range s.kernels {
		if k.reliable {
			found = append(found, fmt.Sprintf("kernel %d runs the reliable layer", ki))
		}
		for dst, pr := range k.peers {
			if pr == nil {
				continue
			}
			records++
			if pr.seen != nil || pr.live != nil || pr.dead || pr.inc != 1 {
				found = append(found, fmt.Sprintf("kernel %d has reliability state toward kernel %d", ki, dst))
			}
		}
	}
	return records, found
}

// MemCapsEverywhere counts memory capabilities across all kernels.
func MemCapsEverywhere(s *System) int {
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

// OwnedMemCaps counts memory capabilities owned by one VPE anywhere.
func OwnedMemCaps(s *System, vpe int) int {
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

// svcFuncs is a ServiceHandlers made of funcs, for tests. A nil func stands
// for a service that implements nothing there: it opens with a zero result,
// refuses every exchange and replies nil.
type svcFuncs struct {
	open     func(p *sim.Proc, clientVPE int, args any) SvcResult
	obtain   func(p *sim.Proc, ident uint64, args any) SvcResult
	delegate func(p *sim.Proc, ident uint64, args any, obj cap.Object) SvcResult
	request  func(p *sim.Proc, ident uint64, args any) any
}

func (f *svcFuncs) Open(p *sim.Proc, clientVPE int, args any) SvcResult {
	if f.open == nil {
		return SvcResult{}
	}
	return f.open(p, clientVPE, args)
}

func (f *svcFuncs) Obtain(p *sim.Proc, ident uint64, args any) SvcResult {
	if f.obtain == nil {
		return SvcResult{Errno: ErrDenied}
	}
	return f.obtain(p, ident, args)
}

func (f *svcFuncs) Delegate(p *sim.Proc, ident uint64, args any, obj cap.Object) SvcResult {
	if f.delegate == nil {
		return SvcResult{Errno: ErrDenied}
	}
	return f.delegate(p, ident, args, obj)
}

func (f *svcFuncs) Request(p *sim.Proc, ident uint64, args any) any {
	if f.request == nil {
		return nil
	}
	return f.request(p, ident, args)
}
