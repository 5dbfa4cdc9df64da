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
//     subtree and answer whoever waits for it.
//
// Incoming revoke requests are handled by at most RevokeThreads kernel
// threads, and those threads never pause — not for replies (completion is
// continuation-based) and not for in-flight credits (a forward that finds
// none waits as data, see post) — so malicious applications cannot exhaust
// the kernel's thread pool with deep cross-kernel capability chains (the DoS
// defense of §4.3.3), and chains that leave a kernel and come back cannot
// deadlock it (DESIGN.md "Deadlock freedom of revocation"). Marked
// capabilities immediately refuse further exchanges, preventing "pointless"
// exchanges, and a second revocation reaching an already-marked capability
// joins the running one instead of acknowledging an incomplete revoke.

// revState is one revocation record, and the only thing revocation waits on.
// A record with a root revokes that subtree. One without answers something
// once the subtrees it started or joined are gone: the revoke request req
// (one key or a batch), or else the syscall thread that started it and is
// parked on the record. A record is answered by its parents — every record
// that joined it, or that it was started for — in the order they joined.
// Records, their marked-key lists and walk stacks are recycled through the
// kernel's free list.
type revState struct {
	root *cap.Capability
	// outstanding counts unanswered revoke requests and joined revocations.
	outstanding int
	// sending is true while revoke runs, which a syscall thread may pause in:
	// an early reply must neither sweep early nor recycle the record under it.
	sending bool
	// marked are the keys marked under this record, for map cleanup; kids
	// is the mark walk's stack of child-list snapshots; remote are the
	// walk's remote children that batched revocation sends at its end.
	marked, kids []ddl.Key
	remote       []remoteChild
	parents      []*revState
	req          *ikcRequest // held until the record is freed
	thread       *sim.Proc
	next         *revState // on the free list
}

// remoteChild is a capability of another kernel found by a mark walk.
type remoteChild struct {
	dst int
	key ddl.Key
}

// newRev takes a record off the free list (or makes one).
func (k *Kernel) newRev() *revState {
	k.revHeld++
	rs := k.revFree
	if rs == nil {
		return &revState{}
	}
	k.revFree, rs.next = rs.next, nil
	return rs
}

func (k *Kernel) freeRev(rs *revState) {
	k.revHeld--
	if rs.req != nil {
		rs.req.drop(k.sys)
	}
	*rs = revState{marked: rs.marked[:0], kids: rs.kids[:0], remote: rs.remote[:0], parents: rs.parents[:0], next: k.revFree}
	k.revFree = rs
}

// Ready implements sim.Waiter for the syscall thread parked on its record.
func (rs *revState) Ready(p *sim.Proc) bool {
	if rs.outstanding > 0 {
		rs.thread = p
		return false
	}
	return true
}

// sysRevoke is the syscall entry point.
func (k *Kernel) sysRevoke(p *sim.Proc, req *sysRequest) sysReply {
	c := k.lookupSel(p, req.VPE, req.Sel)
	if c == nil {
		return sysReply{Err: ErrNoSuchCap}
	}
	k.stats.Revokes++
	k.revokeAndWait(p, c)
	return sysReply{}
}

// revokeAndWait revokes the subtree rooted at c for a syscall and blocks
// until the revocation is complete everywhere — the paper's semantics: a
// completed revoke is indeed completed (no "Incomplete" acknowledgements).
func (k *Kernel) revokeAndWait(p *sim.Proc, c *cap.Capability) {
	rs := k.newRev()
	k.revoke(p, c, rs)
	if rs.outstanding > 0 {
		k.pause(p, rs)
	}
	k.freeRev(rs)
}

// handleRevokeReq processes an incoming revoke request, single or batched
// (Algorithm 1, receive_revoke_request), and reports whether it is answered
// now, with an empty reply. It runs on a revoke thread and never pauses: if
// a subtree is not gone yet, the record answers later via ikReplyAsync.
func (k *Kernel) handleRevokeReq(p *sim.Proc, req *ikcRequest) (answered bool) {
	up := k.newRev()
	up.req = req.hold()
	if req.Kind == ikcRevoke {
		k.revokeKey(p, req.Key, up)
	}
	for _, key := range req.Keys {
		k.revokeKey(p, key, up)
	}
	if up.outstanding > 0 {
		return false
	}
	k.freeRev(up)
	return true
}

// revokeKey revokes one target of a revoke request for up. A key this kernel
// does not hold is confirmed at once (idempotent).
func (k *Kernel) revokeKey(p *sim.Proc, key ddl.Key, up *revState) {
	k.exec(p, k.sys.Cost.CapLookup+k.sys.Cost.DDLDecode)
	if c := k.store.Lookup(key); c != nil {
		k.revoke(p, c, up)
	} else {
		k.revokeUnseen(key)
	}
}

// revoke starts revoking the subtree rooted at c on behalf of up: the one
// start routine. A marked c joins the revocation running for it. Otherwise a
// new record marks the subtree, forwards its remote children and — started by
// a syscall — unlinks c from its parent; if nothing is outstanding then, it
// sweeps at once, else up waits for it.
func (k *Kernel) revoke(p *sim.Proc, c *cap.Capability, up *revState) {
	if c.Marked {
		k.join(up, c.Key)
		return
	}
	rs := k.newRev()
	rs.root, rs.sending = c, true
	parentKey := c.Parent
	rs.kids = k.revokeChildren(p, c, rs, rs.kids)
	k.forwardBatches(p, rs)
	// Unlink a syscall's root from its parent (the parent survives this
	// revoke). A requested root's parent is on the requesting kernel and is
	// being revoked itself.
	if up.req == nil && parentKey != 0 {
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
	rs.sending = false
	if rs.outstanding == 0 {
		k.finishRevocation(p, rs)
		return
	}
	up.outstanding++
	rs.parents = append(rs.parents, up)
}

// join makes up wait for the revocation that marked key, if that is still
// running and not up itself (Table 2 "Incomplete": answering now would
// acknowledge an incomplete revoke).
func (k *Kernel) join(up *revState, key ddl.Key) {
	if rs, _ := k.revocations.Get(key); rs != nil && rs != up {
		up.outstanding++
		rs.parents = append(rs.parents, up)
	}
}

// revokeChildren is phase one: mark the local subtree and fan out
// inter-kernel requests for remote children (Algorithm 1,
// revoke_children). kids is the walk's stack of child-list snapshots: the
// caller passes the record's, each level pushes its snapshot on top and
// hands the stack back popped. It belongs to one walk, which a syscall
// thread may park in while it waits for an in-flight credit.
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
				k.join(rs, childKey)
				continue
			}
			kids = k.revokeChildren(p, child, rs, kids)
		} else if k.batching.Revoke {
			// Batched revocation: the barrier at the end of the mark walk
			// sends one batched request per owning kernel (forwardBatches) —
			// the paper's §5.2 message-batching proposal.
			rs.remote = append(rs.remote, remoteChild{owner, childKey})
		} else {
			rs.outstanding++
			k.sendRevokeRequest(p, owner, childKey, rs)
		}
	}
	return kids[:base]
}

// sendRevokeRequest fires an inter-kernel revoke request without blocking
// on the reply. Its continuation is rs and the request: the reply hands rs
// to a kernel thread, which decrements the outstanding counter and may
// trigger the sweep (Algorithm 1, receive_revoke_reply). An unreachable
// owner is recorded for replay at its rejoin — the local subtree (including
// the link to this child) is deleted regardless, so the recorded fix is the
// only remaining route to the remote state (complete).
func (k *Kernel) sendRevokeRequest(p *sim.Proc, dst int, key ddl.Key, rs *revState) {
	req := k.request(ikcRequest{Kind: ikcRevoke, Key: key})
	k.ikSend(p, dst, req, awaited{rs: rs, req: req})
}

// forwardBatches is the barrier at the end of a batched mark walk: group
// rs's remote children by owning kernel (in first-seen order) and send one
// ikcRevokeBatch request per kernel, counting one outstanding reply each.
// The batch is answered once, by the receiver's record; the *reply* to it
// rides the reply sink (classRevoke). Its continuation is that of a single
// forward: an unreachable owner leaves every key of the batch unrevoked
// remotely, and each is recorded for replay at the owner's rejoin. The walk's
// keys share one array, each batch a window of it that cannot grow into the
// next; receivers only read them.
func (k *Kernel) forwardBatches(p *sim.Proc, rs *revState) {
	all := make([]ddl.Key, 0, len(rs.remote))
	for i, e := range rs.remote {
		if e.dst < 0 {
			continue // sent in an earlier kernel's batch
		}
		start := len(all)
		all = append(all, e.key)
		for j := i + 1; j < len(rs.remote); j++ {
			if rs.remote[j].dst == e.dst {
				all = append(all, rs.remote[j].key)
				rs.remote[j].dst = -1
			}
		}
		keys := all[start:len(all):len(all)]
		rs.outstanding++
		req := k.request(ikcRequest{Kind: ikcRevokeBatch, Keys: keys})
		k.ikSend(p, e.dst, req, awaited{rs: rs, req: req})
	}
	rs.remote = rs.remote[:0]
}

// revokeReplyArrived accounts one completed child revocation and finishes
// rs if it was the last.
func (k *Kernel) revokeReplyArrived(p *sim.Proc, rs *revState) {
	rs.outstanding--
	if rs.outstanding < 0 {
		panic("core: negative outstanding revoke count")
	}
	if rs.outstanding == 0 && !rs.sending {
		k.finishRevocation(p, rs)
	}
}

// finishRevocation is phase two: delete the local subtree, answer the
// parents — waking the initiating syscall thread, replying to the
// requesting kernel, or completing an overlapping revocation, whose own
// sweep then runs right here — and recycle the record. The time of every
// sweep so far passes before the next parent learns that this one is over.
func (k *Kernel) finishRevocation(p *sim.Proc, rs *revState) {
	if rs.root != nil {
		k.deleteTree(p, rs.root, rs)
		for _, key := range rs.marked {
			if cur, _ := k.revocations.Get(key); cur == rs {
				k.revocations.Delete(key)
			}
		}
	}
	for i, up := range rs.parents {
		rs.parents[i] = nil
		p.Settle()
		k.revokeReplyArrived(p, up)
	}
	switch {
	case rs.root != nil:
		k.freeRev(rs)
	case rs.req != nil:
		k.ikReplyAsync(rs.req, ikcReply{})
		k.freeRev(rs)
	case rs.thread != nil:
		rs.thread.Wake() // the thread recycles its record
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
