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
// that joined it, or that it was started for — in the order they joined;
// only a record with a root has parents, the first two in the record itself.
// Records come from the machine's blocks and are recycled through the
// kernel's free list, with their parent lists (newRev, freeRev).
type revState struct {
	root *cap.Capability
	// outstanding counts unanswered revoke requests and joined revocations.
	outstanding int
	// sending is true while revoke runs, which a syscall thread may pause in:
	// an early reply must neither sweep early nor recycle the record under it.
	sending bool
	parents []*revState
	parent2 [2]*revState // parents' first storage
	req     *ikcRequest  // held until the record is freed
	thread  *sim.Proc
	next    *revState // on the free list
}

// walk is the scratch of one mark walk (revokeChildren, forwardBatches): its
// stack of child-list snapshots, and the remote children a batched walk
// forwards at its end. A kernel keeps those no walk is using (Kernel.walks,
// the first in its record) and a walk takes the one put back last, so a
// kernel has as many as its walks ever ran at once — one, but where a
// syscall thread parks in a walk for an in-flight credit — each grown to the
// largest walk it served.
type walk struct {
	kids, remote []ddl.Key
}

// takeWalk hands a walk its scratch.
func (k *Kernel) takeWalk() walk {
	n := len(k.walks)
	if n == 0 {
		return walk{}
	}
	w := k.walks[n-1]
	k.walks = k.walks[:n-1]
	return w
}

// putWalk takes a walk's scratch back, emptied.
func (k *Kernel) putWalk(w walk) {
	k.walks = append(k.walks, walk{w.kids[:0], w.remote[:0]})
}

// keyRoom returns l, a walk's key list or a batched revoke request's, with
// room for n more keys: l itself while it has the room, else a copy in a
// run of the machine's blocks of 16 keys a kernel. A walk's scratch and a
// request record keep the runs they grew into (putWalk, ikcRequest.drop).
func (s *System) keyRoom(l []ddl.Key, n int) []ddl.Key {
	return s.revKeys.Grow(l, n, listRun, 16*len(s.kernels))
}

// newRev takes a record off the free list, or a fresh one from the
// machine's blocks of System.recBlock.
func (k *Kernel) newRev() *revState {
	k.revHeld++
	rs := k.revFree
	if rs == nil {
		rs = k.sys.revRecs.New(k.sys.recBlock)
		rs.parents = rs.parent2[:0]
		return rs
	}
	k.revFree, rs.next = rs.next, nil
	return rs
}

// freeRev releases rs to the free list, its parent list emptied.
func (k *Kernel) freeRev(rs *revState) {
	k.revHeld--
	if rs.req != nil {
		rs.req.drop(k.sys)
	}
	*rs = revState{parents: rs.parents[:0], next: k.revFree}
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
	w := k.takeWalk()
	k.revokeChildren(p, c, rs, &w)
	k.forwardBatches(p, rs, w.remote)
	k.putWalk(w)
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
	k.await(up, rs)
}

// join makes up wait for the revocation that marked key, if that is still
// running and not up itself (Table 2 "Incomplete": answering now would
// acknowledge an incomplete revoke).
func (k *Kernel) join(up *revState, key ddl.Key) {
	if rs, _ := k.revocations.Get(key); rs != nil && rs != up {
		k.await(up, rs)
	}
}

// await makes up wait for rs: one more outstanding answer for up, which rs
// gives when it finishes, after those of the parents that joined it earlier.
func (k *Kernel) await(up, rs *revState) {
	up.outstanding++
	rs.parents = append(k.sys.revUps.Grow(rs.parents, 1, listRun, listRun*k.sys.recBlock), up)
}

// revokeChildren is phase one: mark the local subtree and fan out
// inter-kernel requests for remote children (Algorithm 1,
// revoke_children). w.kids is the walk's stack of child-list snapshots:
// each level pushes its snapshot on top and pops it when it is done. It
// belongs to one walk, which a syscall thread may park in while it waits
// for an in-flight credit.
func (k *Kernel) revokeChildren(p *sim.Proc, c *cap.Capability, rs *revState, w *walk) {
	c.Marked = true
	k.revocations.Put(c.Key, rs)
	k.charge(p, k.sys.Cost.RevokeMark)

	// Snapshot the child list: the recursion below reaches preemption
	// points, and c's children may change while this thread is parked. The
	// snapshot is w.kids[base:end], read by index because the recursion
	// pushes its own snapshots above end and may move the stack doing so.
	base := len(w.kids)
	w.kids = c.AppendChildren(k.sys.keyRoom(w.kids, c.NumChildren()))
	end := len(w.kids)
	for i := base; i < end; i++ {
		childKey := w.kids[i]
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
			k.revokeChildren(p, child, rs, w)
		} else if k.batching.Revoke {
			// Batched revocation: the barrier at the end of the mark walk
			// sends one batched request per owning kernel (forwardBatches) —
			// the paper's §5.2 message-batching proposal.
			w.remote = append(k.sys.keyRoom(w.remote, 1), childKey)
		} else {
			rs.outstanding++
			k.sendRevokeRequest(p, owner, childKey, rs)
		}
	}
	w.kids = w.kids[:base]
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
// the walk's remote children by owning kernel (in first-seen order) and send
// one ikcRevokeBatch request per kernel, counting one outstanding reply each
// toward rs.
// The batch is answered once, by the receiver's record; the *reply* to it
// rides the reply sink (classRevoke). Its continuation is that of a single
// forward: an unreachable owner leaves every key of the batch unrevoked
// remotely, and each is recorded for replay at the owner's rejoin. A batch's
// keys go into its request record's own key list, which the record keeps
// for its next batch (ikcRequest.drop); receivers only read them. A key
// sent in an earlier kernel's batch is zeroed in remote.
func (k *Kernel) forwardBatches(p *sim.Proc, rs *revState, remote []ddl.Key) {
	for i, key := range remote {
		if key == 0 {
			continue
		}
		dst, rest := k.member.KernelOfKey(key), remote[i:]
		n := 0
		for _, other := range rest {
			if other != 0 && k.member.KernelOfKey(other) == dst {
				n++
			}
		}
		req := k.request(ikcRequest{Kind: ikcRevokeBatch})
		req.Keys = k.sys.keyRoom(req.Keys, n)
		for j, other := range rest {
			if other != 0 && k.member.KernelOfKey(other) == dst {
				req.Keys = append(req.Keys, other)
				rest[j] = 0
			}
		}
		rs.outstanding++
		k.ikSend(p, dst, req, awaited{rs: rs, req: req})
	}
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

// deleteTree removes the local capabilities of rs's subtree, and their
// entries in revocations: they are the ones rs marked, since nothing links a
// child to a marked capability or unlinks a local one from it. Children
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
	k.revocations.Delete(c.Key)
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
