package core

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/ddl"
)

// CheckLeaks audits the quiesced machine for capability and DDL state that
// outlived its owner — the leak classes the crash-recovery protocol
// (rejoin.go) exists to prevent. Call it only after the simulation has
// drained (no events left): mid-run, handshakes and revocations are
// legitimately in flight. deadKernels lists kernels that crashed and never
// recovered; state only they could clean up is excused.
//
// Checked, per live kernel:
//
//   - Pending delegation-handshake entries: at quiescence every handshake
//     has been acknowledged or aborted, so a surviving entry is a leaked
//     capability-to-be whose ack is never coming.
//   - Dangling child links: a capability listing a child that the child's
//     (live) owner kernel — this one or another — does not hold: the
//     lost-reply phantom of a spanning exchange, a lost unlink
//     notification, or a child removed without being unlinked. A kernel's
//     own table cannot find the last kind: it cannot tell a lost key of
//     its own from a key another kernel holds.
//   - Orphaned capabilities: a capability whose (live-kernel) parent is
//     gone, or whose parent no longer links it — authority that survived
//     its delegator, the leak a revocation storm provokes.
//   - Unreplayed orphan fixes aimed at live kernels: a recorded fix whose
//     target rejoined should have been replayed and discharged.
//
// The return value lists every violation (empty means clean), so tests can
// report all findings at once instead of failing on the first.
func (s *System) CheckLeaks(deadKernels ...int) []string {
	dead := make(map[int]bool, len(deadKernels))
	for _, k := range deadKernels {
		dead[k] = true
	}
	var problems []string
	for _, k := range s.kernels {
		if dead[k.id] {
			continue
		}
		k.pendingDelegations.Range(func(key ddl.Key, _ pendingChild) bool {
			// An entry whose minted child lives on a dead kernel is stuck by
			// the crash itself — the ack died with the peer — and is excused.
			if !dead[k.member.KernelOfKey(key)] {
				problems = append(problems,
					fmt.Sprintf("kernel %d: pending delegation %v never acknowledged", k.id, key))
			}
			return true
		})
		for _, f := range k.orphanFixes {
			if !dead[f.dst] {
				problems = append(problems,
					fmt.Sprintf("kernel %d: unreplayed orphan fix (%v key %v) for live kernel %d", k.id, f.kind, f.key, f.dst))
			}
		}
		k.store.ForEach(func(c *cap.Capability) {
			key := c.Key
			c.ForEachChild(func(ck ddl.Key) {
				owner := k.member.KernelOfKey(ck)
				if !dead[owner] && s.kernels[owner].store.Lookup(ck) == nil {
					problems = append(problems,
						fmt.Sprintf("kernel %d: %v links child %v that kernel %d does not hold", k.id, key, ck, owner))
				}
			})
			if c.Parent == 0 {
				return
			}
			powner := k.member.KernelOfKey(c.Parent)
			if powner == k.id || dead[powner] {
				return
			}
			parent := s.kernels[powner].store.Lookup(c.Parent)
			switch {
			case parent == nil:
				problems = append(problems,
					fmt.Sprintf("kernel %d: %v orphaned — parent %v gone at kernel %d", k.id, key, c.Parent, powner))
			case !parent.HasChild(key):
				problems = append(problems,
					fmt.Sprintf("kernel %d: %v unlinked — parent %v at kernel %d lacks the child link", k.id, key, c.Parent, powner))
			}
		})
	}
	return problems
}
