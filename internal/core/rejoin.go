package core

import (
	"repro/internal/ddl"
	"repro/internal/sim"
)

// Kernel crash recovery (rejoin protocol). A scripted kernel crash
// (fault.KernelFault.CrashAt) blackholes every inter-kernel link of the
// kernel; with a RecoverAt the links come back and the kernel resumes as a
// new *incarnation*. The crash is link-level — the kernel PE itself kept
// running its group's syscalls, spuriously declaring peers dead and
// aborting cross-kernel operations with ErrPeerDead — so rejoining is not
// a reboot but a reconciliation:
//
//   1. At RecoverAt (beginRejoin, event context) the kernel bumps its
//      incarnation number, clears its own dead-peer verdicts, aborts every
//      transmission that travelled in the dead incarnation (no answer can
//      ever resolve them) and resets the delegation-handshake state that
//      can no longer be acknowledged. A request is stamped when it first
//      goes on the wire, so what never left — a forward deferred for a
//      credit, a request in an aggregation queue or waiting for a credit —
//      leaves later as the new incarnation's.
//   2. A kernel thread then broadcasts an ikcRejoin handshake. The bumped
//      incarnation stamp on that request (and on any later request) is
//      what re-admits the kernel at each peer: the receive gate (admit)
//      observes a newer incarnation and runs admitIncarnation — clear the
//      dead verdict, discard retransmit/dedup/handshake state keyed by the
//      dead incarnation, and schedule the peer's own reconciliation toward
//      the rejoined kernel.
//   3. After the handshake the recovering kernel replays recorded orphan
//      fixups and conservatively revokes every delegation chain still
//      rooted in the dead incarnation (reconcileChains), so no capability
//      or DDL entry outlives the incarnation that created it.
//
// Stale traffic from the dead incarnation — retransmits of its requests,
// late replies to questions it asked, requests addressed to it — is
// rejected by incarnation mismatch (admit / recvReply) and counted in
// KernelStats.StaleIncarnation. Rejecting stale requests instead of
// tracking them is also what keeps the receiver dedup state bounded: a
// peer can discard everything keyed by a dead incarnation wholesale
// because the recovering kernel aborted all its transmissions at rejoin
// and will never retransmit them.

// orphanFix records one cross-kernel tree-maintenance operation that
// failed with ErrPeerDead: a subtree revocation whose remote child could
// not be reached (the local parent is already gone, so the link cannot be
// walked again) or an orphan-unlink notification that never arrived.
// Fixes are replayed when the dead peer rejoins (replayOrphanFixes); ones
// aimed at a permanently dead kernel stay recorded forever, which is
// harmless — the state they would fix died with the peer.
type orphanFix struct {
	dst   int
	kind  ikcKind // ikcRevoke or ikcUnlinkChild
	key   ddl.Key // revocation target, or the parent of an unlink
	child ddl.Key // unlinked child (ikcUnlinkChild only)
}

// recordOrphanFixes remembers, for replay at dst's rejoin, the tree
// maintenance of a fire-and-forget request that failed because dst is dead:
// each target of a revoke forward, or the link an unlink would have removed.
// It is the continuation of those requests (complete), so it runs in event
// context, or inline where the request failed fast.
func (k *Kernel) recordOrphanFixes(dst int, req *ikcRequest) {
	switch req.Kind {
	case ikcUnlinkChild:
		k.orphanFixes = append(k.orphanFixes, orphanFix{dst: dst, kind: ikcUnlinkChild, key: req.Key, child: req.Child})
	case ikcRevoke:
		k.orphanFixes = append(k.orphanFixes, orphanFix{dst: dst, kind: ikcRevoke, key: req.Key})
	case ikcRevokeBatch:
		for _, key := range req.Keys {
			k.orphanFixes = append(k.orphanFixes, orphanFix{dst: dst, kind: ikcRevoke, key: key})
		}
	}
}

// admitIncarnation re-admits a peer that crashed and came back: record the
// new incarnation and discard every piece of state keyed by the dead one.
// Runs in thread context (CPU held) from admit; everything here is
// either a local map operation or a job submission, never a preemption
// point.
func (k *Kernel) admitIncarnation(from int, inc uint32) {
	pr := k.peers[from]
	pr.inc, pr.dead = inc, false
	// The duplicate filter and reply cache for the peer are keyed by the
	// dead incarnation's sequence numbers: the recovering kernel aborted all
	// its outstanding transmissions at rejoin, so none of them will ever be
	// retransmitted, and stragglers already on the wire are rejected by the
	// incarnation gate before they reach the filter.
	if pr.seen != nil {
		pr.seen.reset()
	}
	// Outstanding transmissions *to* the peer were addressed to the dead
	// incarnation (their ToInc stamp), and the peer's receive gate rejects
	// every copy of them as stale, so nothing acts on a call failed here.
	// Abort them in first-send order, completing their calls with
	// ErrPeerDead.
	k.abortLive(pr)
	// Delegation handshakes whose originator is the dead incarnation can
	// never be acknowledged: their entries would leak forever.
	k.dropPeerDelegations(from)
	// This kernel's own reconciliation toward the rejoined peer — replaying
	// recorded orphan fixes and revoking the chains still linking into the
	// dead incarnation — blocks on inter-kernel calls, so it runs as a pool
	// job rather than inline under the admission gate.
	k.ikcPool.submit(job{kind: jobFunc, subj: func(p *sim.Proc) {
		k.replayOrphanFixes(p, from)
		k.reconcileChains(p, from)
		k.releaseCPU(p)
	}})
}

// dropPeerDelegations discards pending delegation-handshake entries whose
// parent capability is owned by the given kernel: the originator aborted
// the handshake with ErrPeerDead when this kernel was unreachable (or died
// itself), so the acknowledgement that would resolve each entry is never
// coming.
func (k *Kernel) dropPeerDelegations(from int) {
	var doomed []ddl.Key
	k.pendingDelegations.Range(func(key ddl.Key, pc pendingChild) bool {
		if k.member.KernelOfKey(pc.parent) == from {
			doomed = append(doomed, key)
		}
		return true
	})
	for _, key := range doomed {
		k.pendingDelegations.Delete(key)
	}
}

// handleRejoin acknowledges a rejoin handshake. All the actual
// re-admission work already ran in the receive gate (admit saw
// the bumped stamp and called admitIncarnation before this handler was
// dispatched); the explicit handshake exists so the recovering kernel
// *knows* every peer routes to it again before it reconciles its own
// state.
func (k *Kernel) handleRejoin(p *sim.Proc, req *ikcRequest) ikcReply {
	k.exec(p, k.sys.Cost.DDLDecode)
	return ikcReply{}
}

// beginRejoin runs at RecoverAt (event context, scheduled by NewSystem for
// every crash+recover fault): the link-level blackhole just ended and the
// kernel resumes as a new incarnation.
func (k *Kernel) beginRejoin() {
	start := k.sys.Eng.Now()
	k.incarnation++
	// Per peer, in destination order: forget the verdict — formed by a dead
	// link, not a dead peer — and then abort, in first-send order, every
	// transmission that travelled in the dead incarnation, whose retransmits
	// the peer would reject by incarnation mismatch. The verdict goes first,
	// so the credits the aborts return go to the forwards deferred for them.
	// What never left — forwards deferred for a credit, requests in an
	// aggregation queue or waiting for a credit — leaves later, stamped with
	// the new incarnation.
	for _, pr := range k.peers {
		if pr != nil {
			pr.dead = false
			k.abortLive(pr)
		}
	}
	// Delegation handshakes prepared for remote originators: every
	// originator aborted (this kernel was unreachable), so no entry can be
	// acknowledged. The epoch guards in the delegate handlers keep threads
	// of the dead incarnation, parked across RecoverAt, from resurrecting
	// entries after this reset.
	k.pendingDelegations = ddl.KeyMap[pendingChild]{}

	k.ikcPool.submit(job{kind: jobFunc, subj: func(p *sim.Proc) {
		// Handshake with every peer, in kernel order. The bumped stamp on
		// the request re-admits this kernel at the peer (admit); the
		// reply tells this kernel the peer routes to it again.
		for peer := range k.sys.kernels {
			if peer == k.id {
				continue
			}
			k.exec(p, k.sys.Cost.IKCMarshal)
			k.ikCall(p, peer, ikcRequest{Kind: ikcRejoin})
		}
		k.replayOrphanFixes(p, -1)
		k.reconcileChains(p, -1)
		k.stats.Rejoins++
		k.stats.RejoinCycles += k.sys.Eng.Now() - start
		k.releaseCPU(p)
	}})
}

// replayOrphanFixes re-sends the recorded tree-maintenance operations
// aimed at kernel dst (all kernels when dst is -1). Fixes whose target is
// still unreachable — or that fail with ErrPeerDead again mid-replay —
// stay recorded for the next rejoin.
func (k *Kernel) replayOrphanFixes(p *sim.Proc, dst int) {
	if len(k.orphanFixes) == 0 {
		return
	}
	fixes := k.orphanFixes
	k.orphanFixes = nil
	var keep []orphanFix
	for _, f := range fixes {
		if (dst >= 0 && f.dst != dst) || k.peerDead(f.dst) {
			keep = append(keep, f)
			continue
		}
		switch f.kind {
		case ikcRevoke:
			// Idempotent at the owner: a key already gone just confirms.
			k.exec(p, k.sys.Cost.IKCMarshal)
			rep := k.ikCall(p, f.dst, ikcRequest{Kind: ikcRevoke, Key: f.key})
			if rep.Err == ErrPeerDead {
				keep = append(keep, f)
			}
		case ikcUnlinkChild:
			// notifyUnlink re-records the fix itself if the peer is dead
			// again by the time the transmission resolves.
			k.notifyUnlink(p, f.dst, f.key, f.child)
		}
	}
	// Completions during the replay's preemption points may have recorded
	// new fixes; keep them after the survivors.
	k.orphanFixes = append(keep, k.orphanFixes...)
}

// reconcileChains conservatively severs the delegation chains that link
// this kernel's capabilities to capabilities owned by kernel `into` (every
// remote kernel when into is -1): each remote child subtree is revoked at
// its owner and the local link removed. The recovering kernel runs it over
// all peers — every cross-kernel child it still links was delegated by a
// dead incarnation, and nothing may outlive the incarnation that created
// it. Peers run it toward the rejoined kernel (admitIncarnation) for the
// mirror-image reason: children they link into it belong to its dead
// incarnation, including phantom links whose child was never created
// because the crash swallowed the reply (the revoke is idempotent at the
// owner, so a phantom just confirms).
func (k *Kernel) reconcileChains(p *sim.Proc, into int) {
	// Store.Keys is a deterministic function of the store's operation
	// history, so the walk order is reproducible at any worker count.
	for _, key := range k.store.Keys() {
		c := k.store.Lookup(key)
		if c == nil || c.Marked || c.NumChildren() == 0 {
			continue
		}
		var remote []ddl.Key
		c.ForEachChild(func(ck ddl.Key) {
			owner := k.member.KernelOfKey(ck)
			if owner != k.id && (into < 0 || owner == into) {
				remote = append(remote, ck)
			}
		})
		for _, ck := range remote {
			k.exec(p, k.sys.Cost.DDLDecode+k.sys.Cost.IKCMarshal)
			owner := k.member.KernelOfKey(ck)
			rep := k.ikCall(p, owner, ikcRequest{Kind: ikcRevoke, Key: ck})
			if rep.Err == ErrPeerDead {
				k.orphanFixes = append(k.orphanFixes, orphanFix{dst: owner, kind: ikcRevoke, key: ck})
			}
			// The call was a preemption point and the store compacts removed
			// slots: re-resolve the parent before unlinking.
			if cur := k.store.Lookup(key); cur != nil && !cur.Marked {
				cur.RemoveChild(ck)
				k.exec(p, k.sys.Cost.CapLink)
			}
		}
	}
}
