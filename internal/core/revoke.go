package core

import (
	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/sim"
)

// Distributed revocation (paper §4.3.3, Algorithm 1). Revocation runs in
// two phases, similar to mark-and-sweep:
//
//  1. Mark: walk the capability tree, mark local capabilities and send
//     inter-kernel revoke requests for remote children, counting
//     outstanding replies.
//  2. Sweep: when the last outstanding reply arrives, delete the local
//     subtree and notify the initiator (wake the syscall thread) or reply
//     to the requesting kernel.
//
// Incoming revoke requests are handled by at most RevokeThreads kernel
// threads, and those threads never pause waiting for replies — completion
// is continuation-based — so malicious applications cannot exhaust the
// kernel's thread pool with deep cross-kernel capability chains (the DoS
// defense of §4.3.3). Marked capabilities immediately refuse further
// exchanges, preventing "pointless" exchanges, and a second revocation
// reaching an already-marked capability joins the running one instead of
// acknowledging an incomplete revoke.
type revState struct {
	root *cap.Capability
	// outstanding counts unanswered revoke requests (plus dependencies on
	// overlapping local revocations).
	outstanding int
	// sending is true during the mark phase; completion is deferred until
	// it ends, so an early reply cannot trigger a premature sweep.
	sending bool
	done    bool
	// marked are the keys marked under this state, for map cleanup.
	marked []ddl.Key
	// waiters run (on the finishing proc, CPU held, nothing owed) after the
	// sweep.
	waiters []func(p *sim.Proc)
}

// sysRevoke is the syscall entry point.
func (k *Kernel) sysRevoke(p *sim.Proc, req *sysRequest) sysReply {
	c := k.lookupSel(p, req.VPE, req.Sel)
	if c == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	k.stats.Revokes++
	k.revokeSubtree(p, c)
	return sysReply{}
}

// revokeSubtree revokes the subtree rooted at c and blocks until the
// revocation is complete everywhere — the paper's semantics: a completed
// revoke is indeed completed (no "Incomplete" acknowledgements).
func (k *Kernel) revokeSubtree(p *sim.Proc, c *cap.Capability) {
	if c.Marked {
		// Join the revocation already running for this capability.
		rs, ok := k.revocations.Get(c.Key)
		if !ok {
			return // already swept
		}
		fut := sim.NewFuture[struct{}](k.sys.Eng)
		rs.waiters = append(rs.waiters, func(*sim.Proc) { fut.Complete(struct{}{}) })
		blockOn(k, p, fut)
		return
	}
	rs := &revState{root: c, sending: true}
	parentKey := c.Parent
	k.revokeChildren(p, c, rs, nil)
	k.xport.flushRevokes(p, rs)
	rs.sending = false
	// Unlink the root from its parent (the parent survives this revoke).
	if parentKey != 0 {
		k.charge(p, k.sys.Cost.DDLDecode)
		if owner := k.member.KernelOfKey(parentKey); owner == k.id {
			if parent := k.store.Lookup(parentKey); parent != nil && !parent.Marked {
				parent.RemoveChild(c.Key)
				k.charge(p, k.sys.Cost.CapLink)
			}
		} else {
			k.notifyUnlink(p, owner, parentKey, c.Key)
		}
	}
	if rs.outstanding == 0 {
		k.finishRevocation(p, rs)
		return
	}
	fut := sim.NewFuture[struct{}](k.sys.Eng)
	rs.waiters = append(rs.waiters, func(*sim.Proc) { fut.Complete(struct{}{}) })
	blockOn(k, p, fut)
}

// revokeChildren is phase one: mark the local subtree and fan out
// inter-kernel requests for remote children (Algorithm 1,
// revoke_children). kids is the walk's stack of child-list snapshots: the
// caller passes nil (or what an earlier walk of its own returned), each level
// pushes its snapshot on top and hands the stack back popped. It belongs to
// one walk on one thread — another thread may walk while this one waits for
// an in-flight credit — and lives no longer than the mark phase.
func (k *Kernel) revokeChildren(p *sim.Proc, c *cap.Capability, rs *revState, kids []ddl.Key) []ddl.Key {
	c.Marked = true
	k.revocations.Put(c.Key, rs)
	rs.marked = append(rs.marked, c.Key)
	k.charge(p, k.sys.Cost.RevokeMark)

	// Snapshot the child list: the recursion below reaches preemption
	// points, and c's children may change while this thread is parked. The
	// snapshot is kids[base:end], read by index because the recursion pushes
	// its own snapshots above end and may move the stack doing so.
	base := len(kids)
	kids = c.AppendChildren(kids)
	end := len(kids)
	for i := base; i < end; i++ {
		childKey := kids[i]
		k.charge(p, k.sys.Cost.DDLDecode)
		owner := k.member.KernelOfKey(childKey)
		if owner == k.id {
			child := k.store.Lookup(childKey)
			if child == nil {
				continue // already revoked (e.g. overlapping sweep)
			}
			if child.Marked {
				// Overlapping revocation: our subtree is complete only when
				// that one is. Count it like an outstanding reply.
				other, _ := k.revocations.Get(childKey)
				if other != nil && other != rs {
					rs.outstanding++
					other.waiters = append(other.waiters, func(p2 *sim.Proc) {
						k.revokeReplyArrived(p2, rs)
					})
				}
				continue
			}
			kids = k.revokeChildren(p, child, rs, kids)
		} else if k.xport.pol.Revoke {
			// Batched revocation: queue the remote child on the unified
			// transport; the barrier flush at the end of the mark walk
			// sends one batched request per owning kernel (transport.go,
			// flushRevokes) — the paper's §5.2 message-batching proposal.
			k.xport.queueRevoke(owner, childKey, rs)
		} else {
			rs.outstanding++
			k.sendRevokeRequest(p, owner, childKey, rs)
		}
	}
	return kids[:base]
}

// sendRevokeRequest fires an inter-kernel revoke request without blocking
// on the reply; the reply decrements the outstanding counter and may
// trigger the sweep (Algorithm 1, receive_revoke_reply).
func (k *Kernel) sendRevokeRequest(p *sim.Proc, dst int, key ddl.Key, rs *revState) {
	fut := k.ikSend(p, dst, &ikcRequest{Kind: ikcRevoke, Key: key})
	fut.OnComplete(func(rep *ikcReply) {
		// Event context: hand completion to a kernel thread. An unreachable
		// owner is recorded for replay at its rejoin — the local subtree
		// (including the link to this child) is deleted regardless, so the
		// recorded fix is the only remaining route to the remote state.
		k.recordOrphanFix(orphanFix{dst: dst, kind: ikcRevoke, key: key}, rep)
		k.compSubmit(rs)
	})
}

// compSubmit schedules completion processing of one revoke reply on the
// kernel CPU.
func (k *Kernel) compSubmit(rs *revState) {
	k.compPool().submit(job{kind: jobRevokeDone, subj: rs})
}

// compPool lazily creates the completion pool ("main loop" processing of
// revoke replies).
func (k *Kernel) compPool() *pool {
	if k.completionPool == nil {
		k.completionPool = newPool(k, "cmp", 1)
	}
	return k.completionPool
}

// revokeReplyArrived accounts one completed child revocation and sweeps if
// it was the last.
func (k *Kernel) revokeReplyArrived(p *sim.Proc, rs *revState) {
	rs.outstanding--
	if rs.outstanding < 0 {
		panic("core: negative outstanding revoke count")
	}
	if rs.outstanding == 0 && !rs.sending && !rs.done {
		k.finishRevocation(p, rs)
	}
}

// finishRevocation is phase two: delete the local subtree and run the
// waiters (waking the initiating syscall thread and/or replying to
// requesting kernels).
func (k *Kernel) finishRevocation(p *sim.Proc, rs *revState) {
	if rs.done {
		return
	}
	rs.done = true
	k.deleteTree(p, rs.root, rs)
	for _, key := range rs.marked {
		if cur, _ := k.revocations.Get(key); cur == rs {
			k.revocations.Delete(key)
		}
	}
	waiters := rs.waiters
	rs.waiters = nil
	for _, w := range waiters {
		// Waiters wake the initiating thread, answer the requesting kernel or
		// complete an overlapping revocation — whose own sweep then runs
		// right here: the time of every sweep so far passes before the next
		// waiter learns that this one is over.
		p.Settle()
		w(p)
	}
}

// deleteTree removes the local capabilities of rs's subtree. Children
// handled by other kernels (or by overlapping local revocations) are
// deleted by their respective owners.
func (k *Kernel) deleteTree(p *sim.Proc, c *cap.Capability, rs *revState) {
	if k.store.Lookup(c.Key) == nil {
		return
	}
	c.ForEachChild(func(childKey ddl.Key) {
		if k.member.KernelOfKey(childKey) != k.id {
			return
		}
		if cur, _ := k.revocations.Get(childKey); cur != rs {
			return // owned by an overlapping revocation
		}
		if child := k.store.Lookup(childKey); child != nil {
			k.deleteTree(p, child, rs)
		}
	})
	k.charge(p, k.sys.Cost.RevokeDelete)
	// Invalidate any user endpoint configured from this capability so the
	// resource becomes inaccessible (enforcement). Must precede Remove: the
	// store recycles the slab slot, so c's fields are gone afterwards.
	k.invalidateEPs(p, c)
	k.store.Remove(c.Key)
	k.stats.CapsDeleted++
}

// handleRevokeReq processes an incoming revoke request (Algorithm 1,
// receive_revoke_request). It runs on one of the (at most two) revoke
// threads and never pauses for replies: if remote children remain, it
// registers a continuation and returns nil, keeping the thread count
// fixed; the continuation answers later via ikReplyAsync.
func (k *Kernel) handleRevokeReq(p *sim.Proc, req *ikcRequest) *ikcReply {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	c := k.store.Lookup(req.Key)
	if c == nil {
		// Already revoked; confirm (idempotent).
		k.revokeUnseen(req.Key)
		return &ikcReply{}
	}
	if c.Marked {
		// Join the running revocation; reply when it completes. Replying
		// now would acknowledge an incomplete revoke ("Incomplete").
		rs, ok := k.revocations.Get(req.Key)
		if !ok {
			return &ikcReply{}
		}
		rs.waiters = append(rs.waiters, func(p2 *sim.Proc) {
			k.ikReplyAsync(req, &ikcReply{})
		})
		return nil
	}
	rs := &revState{root: c, sending: true}
	k.revokeChildren(p, c, rs, nil)
	k.xport.flushRevokes(p, rs)
	rs.sending = false
	if rs.outstanding == 0 {
		k.finishRevocation(p, rs)
		return &ikcReply{}
	}
	rs.waiters = append(rs.waiters, func(p2 *sim.Proc) {
		k.ikReplyAsync(req, &ikcReply{})
	})
	return nil
}

// handleRevokeBatchReq processes a batched revoke request: each key is
// revoked like a single ikcRevoke target; the reply leaves once every
// key's subtree is gone. Like single revokes, the handler never pauses for
// remote children — completion is continuation-based.
func (k *Kernel) handleRevokeBatchReq(p *sim.Proc, req *ikcRequest) *ikcReply {
	outstanding := 0
	done := false
	var kids []ddl.Key // the mark walks' snapshot stack, reused from key to key
	finish := func() {
		k.ikReplyAsync(req, &ikcReply{})
	}
	for _, key := range req.Keys {
		k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
		c := k.store.Lookup(key)
		if c == nil {
			k.revokeUnseen(key)
			continue // already revoked
		}
		if c.Marked {
			if rs, ok := k.revocations.Get(key); ok {
				outstanding++
				rs.waiters = append(rs.waiters, func(*sim.Proc) {
					outstanding--
					if outstanding == 0 && done {
						finish()
					}
				})
			}
			continue
		}
		rs := &revState{root: c, sending: true}
		kids = k.revokeChildren(p, c, rs, kids)
		k.xport.flushRevokes(p, rs)
		rs.sending = false
		if rs.outstanding == 0 {
			k.finishRevocation(p, rs)
			continue
		}
		outstanding++
		rs.waiters = append(rs.waiters, func(*sim.Proc) {
			outstanding--
			if outstanding == 0 && done {
				finish()
			}
		})
	}
	done = true
	if outstanding == 0 {
		return &ikcReply{}
	}
	return nil
}

// revokeUnseen runs when a revoke request targets a key this kernel has
// never inserted. Usually the subtree was simply revoked already and the
// confirmation is idempotent — but the key may also name a spanning
// exchange whose reply is still in flight: the owner linked the child
// before the reply reached us, and once we confirm "already revoked" it
// deletes the parent. The late reply must then discard the child, so
// tombstone a matching in-flight obtain — the record is the requesting
// VPE's, and the key's creator fields name that VPE (object ids are minted
// per (pe, vpe) across all types, so the triple identifies exactly one
// eventual key); a matching pending delegation is
// dropped outright — its acknowledgement resolves to ErrNoSuchCap at the
// delegator, which unlinks the child there (exchange.go).
func (k *Kernel) revokeUnseen(key ddl.Key) {
	if v := k.vpeOf(key.VPE()); v != nil && v.obtaining && !v.obtainRevoked &&
		v.PE == key.PE() && v.obtainObj == key.Object() {
		v.obtainRevoked = true
		k.stats.RevokedInFlight++
	}
	if _, ok := k.pendingDelegations.Get(key); ok {
		k.pendingDelegations.Delete(key)
		k.stats.RevokedInFlight++
	}
}

// invalidateEPs resets user DTU endpoints configured from a revoked
// capability. The scan is bookkeeping-free: we only reset endpoints of the
// owner VPE whose configuration matches the capability's object.
func (k *Kernel) invalidateEPs(p *sim.Proc, c *cap.Capability) {
	v := k.vpeOf(c.Owner)
	if v == nil {
		return
	}
	if _, ok := c.Object.(*cap.MemObject); ok {
		for ep := vpeFirstMemEP; ep <= vpeLastMemEP; ep++ {
			if act, used := v.activeEPs[ep]; used && act == c.Sel {
				// The endpoint is the VPE's to use until the delete time is up.
				p.Settle()
				_ = v.dtu.Invalidate(k.dtu, ep)
				delete(v.activeEPs, ep)
			}
		}
	}
}
