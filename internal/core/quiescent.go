package core

import (
	"fmt"
	"slices"

	"repro/internal/ddl"
	"repro/internal/dtu"
)

// Audit is the one check of a machine that has run dry (no events left):
// the CheckQuiescent findings — work that stopped without finishing — then
// the CheckLeaks findings for the kernels that crashed and never recovered,
// dead, then every live kernel's capability-table invariants
// (cap.Store.CheckLocalInvariants). Empty means the run ended clean.
func (s *System) Audit(dead ...int) []string {
	out := s.CheckQuiescent()
	out = append(out, s.CheckLeaks(dead...)...)
	for _, k := range s.kernels {
		if slices.Contains(dead, k.id) {
			continue
		}
		if err := k.store.CheckLocalInvariants(); err != nil {
			out = append(out, fmt.Sprintf("kernel %d: %v", k.id, err))
		}
	}
	return out
}

// CheckQuiescent lists the work a machine that has run dry stopped without
// finishing: the part of Audit that looks at what is in flight rather than
// at capabilities, and the one that may also be called mid-run as a probe.
// A run that drains with operations outstanding is not an error the engine
// can see; every party is parked on another, and the only record of who
// waits for what is the wait records themselves. One line per
//
//   - kernel thread that still holds a job, from its wait
//     record: the job and what the thread is parked on — "k1/sys4: syscall
//     revoke, await-credit k1→k0";
//   - VPE whose syscall has not returned;
//   - pair of kernels, from the sender's peer record, whose in-flight
//     credits are not all back, whose deferred revoke forwards still wait
//     for one, whose aggregation queues still hold requests, or whose
//     transmissions are still tracked although the peer is not declared
//     dead;
//   - kernel with replies left in the reply sink, with requests whose
//     calls still await a reply, or with capabilities still marked for
//     revocation;
//   - receive endpoint with slots still occupied;
//   - and one for the machine per kind of recycled record — inter-kernel
//     legs, requests and transmissions, DTU messages and vectors, service
//     queries, revocations — of which some are not back in their
//     sim.Recycler (revocations: on their kernel's free list): a holder that
//     never dropped its reference.
//
// Threads parked for their next job, and service loops parked for their next
// request, are idle and not findings. Empty means quiescent; the order is
// fixed (kernels by id, each kernel's peers by id, then user PEs, then the
// machine), so the list is reproducible.
func (s *System) CheckQuiescent() []string {
	var out []string
	for _, k := range s.kernels {
		for _, pl := range [...]*pool{&k.syscallPool, &k.ikcPool, &k.revokePool, &k.completionPool, &k.xmitPool} {
			// threads is newest first; names count from the oldest.
			for t, idx := pl.threads, pl.taken; t != nil; t, idx = t.next, idx-1 {
				if d := t.describe(); d != "" {
					out = append(out, fmt.Sprintf("%s: %s", pl.threadName(idx), d))
				}
			}
			if n := pl.q.Len(); n > 0 {
				out = append(out, fmt.Sprintf("k%d/%s: %d job(s) queued behind a full pool", k.id, pl.name, n))
			}
		}
		reps := 0
		for dst, pr := range k.peers {
			if pr == nil {
				continue
			}
			if n := MaxInflight - pr.credits.Count(); n != 0 {
				out = append(out, fmt.Sprintf("k%d→k%d: %d of %d in-flight credits not returned", k.id, dst, n, MaxInflight))
			}
			if n := pr.deferred.Len(); n > 0 {
				out = append(out, fmt.Sprintf("k%d→k%d: %d forwarded revoke(s) waiting for a credit", k.id, dst, n))
			}
			for kind, q := range pr.reqq {
				if q != nil && len(q.reqs) > 0 {
					out = append(out, fmt.Sprintf("k%d→k%d: %d %v request(s) in an aggregation queue", k.id, dst, len(q.reqs), ikcKind(kind)))
				}
			}
			if len(pr.live) > 0 && !pr.dead {
				out = append(out, fmt.Sprintf("k%d→k%d: %d transmission(s) still tracked for retransmission", k.id, dst, len(pr.live)))
			}
			for _, q := range pr.repq {
				reps += len(q)
			}
		}
		if reps > 0 {
			out = append(out, fmt.Sprintf("k%d: %d reply(ies) left in the reply sink", k.id, reps))
		}
		if n := k.pending.Len(); n > 0 {
			out = append(out, fmt.Sprintf("k%d: %d request(s) still awaiting a reply", k.id, n))
		}
		if n := k.revocations.Len(); n > 0 {
			out = append(out, fmt.Sprintf("k%d: %d capability(ies) still marked for revocation", k.id, n))
		}
		if occupied(k.dtu) {
			out = appendSlots(out, fmt.Sprintf("kernel %d", k.id), k.dtu)
		}
	}
	for _, pe := range s.userPEs {
		d, v := s.Fab.DTU(pe), s.peToVPE[pe]
		// The one syscall credit comes back with the reply.
		inSyscall := v != nil && d.EpKindOf(vpeSyscallSendEP) == dtu.EpSend && d.Credits(vpeSyscallSendEP) == 0
		if !inSyscall && !occupied(d) {
			continue // the common case allocates nothing
		}
		who := fmt.Sprintf("PE %d", pe)
		if v != nil {
			who = fmt.Sprintf("VPE %d (%s)", v.ID, v.Name)
		}
		if inSyscall {
			out = append(out, fmt.Sprintf("%s: syscall %v has not returned", who, v.sysReq.Kind))
		}
		out = appendSlots(out, who, d)
	}
	msgs, vecs := s.Fab.Held()
	queries, revs := 0, 0
	for _, k := range s.kernels {
		queries += k.queries.Held()
		revs += k.revHeld
	}
	for _, r := range [...]struct {
		kind string
		held int
	}{
		{"inter-kernel leg", s.wires.Held()},
		{"inter-kernel request", s.reqs.Held()},
		{"transmission", s.xmits.Held()},
		{"DTU message", msgs},
		{"DTU vector", vecs},
		{"query", queries},
		{"revocation", revs},
	} {
		if r.held != 0 {
			out = append(out, fmt.Sprintf("%d %s record(s) still held", r.held, r.kind))
		}
	}
	return out
}

// CheckInstant lists what is wrong with the machine at any instant, not only
// once it has run dry: the part of an audit that may be called between any
// two events of a run (engine RunUntil for rising bounds), and reports a
// fault at the instant it happens instead of as a leak at the drain. One
// line per pending delegation prepared for an incarnation of its
// delegator's kernel older than the one its kernel has admitted: that
// delegator's handshake aborted when it crashed, and admitting its rejoin
// dropped every entry it had asked for (dropPeerDelegations), so this one
// will never be acknowledged (prepareDelegate refuses to create it,
// outlived). The order is the kernels', then each table's.
func (s *System) CheckInstant() []string {
	var out []string
	for _, k := range s.kernels {
		k.pendingDelegations.Range(func(key ddl.Key, pc pendingChild) bool {
			from := k.member.KernelOfKey(pc.parent)
			if pr := k.peers[from]; pr != nil && pc.inc < pr.inc {
				out = append(out, fmt.Sprintf("kernel %d: pending delegation %v asked for by incarnation %d of kernel %d, which has rejoined as %d",
					k.id, key, pc.inc, from, pr.inc))
			}
			return true
		})
	}
	return out
}

// occupied reports whether any receive slot of d still holds a message.
func occupied(d *dtu.DTU) bool {
	for ep := 0; ep < dtu.NumEndpoints; ep++ {
		if d.Occupied(ep) > 0 {
			return true
		}
	}
	return false
}

// appendSlots adds one finding per receive endpoint of d with occupied slots.
func appendSlots(out []string, who string, d *dtu.DTU) []string {
	for ep := 0; ep < dtu.NumEndpoints; ep++ {
		if n := d.Occupied(ep); n > 0 {
			out = append(out, fmt.Sprintf("%s: %d receive slot(s) of endpoint %d still occupied", who, n, ep))
		}
	}
	return out
}
