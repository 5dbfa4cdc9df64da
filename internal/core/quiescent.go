package core

import (
	"fmt"

	"repro/internal/dtu"
)

// CheckQuiescent audits a machine that has run dry — call it like CheckLeaks,
// when the engine has no events left — for work that stopped without
// finishing: the question CheckLeaks, which looks at capabilities only,
// cannot answer. A run that drains with operations outstanding is not an
// error the engine can see; every party is parked on another, and the only
// record of who waits for what is the wait records themselves. One line per
//
//   - kernel thread (or transmit proc) that still holds a job, from its wait
//     record: the job and what the thread is parked on — "k1/sys4: syscall
//     revoke, await-credit k1→k0";
//   - VPE whose syscall has not returned;
//   - pair of kernels whose in-flight credits are not all back, and whose
//     deferred revoke forwards still wait for one;
//   - request aggregation queue still holding requests, and kernel with
//     replies left in the reply sink;
//   - receive endpoint with slots still occupied.
//
// Threads parked for their next job, and service loops parked for their next
// request, are idle and not findings. Empty means quiescent; the order is
// fixed (kernels by id, then user PEs), so the list is reproducible.
func (s *System) CheckQuiescent() []string {
	var out []string
	for _, k := range s.kernels {
		for _, pl := range [...]*pool{k.syscallPool, k.ikcPool, k.revokePool, k.completionPool} {
			if pl == nil {
				continue
			}
			// threads is newest first; names count from the oldest.
			idx := 0
			for t := pl.threads; t != nil; t = t.next {
				idx++
			}
			for t := pl.threads; t != nil; t, idx = t.next, idx-1 {
				if d := t.describe(); d != "" {
					out = append(out, fmt.Sprintf("%s: %s", pl.threadName(idx), d))
				}
			}
			if n := pl.q.Len(); n > 0 {
				out = append(out, fmt.Sprintf("k%d/%s: %d job(s) queued behind a full pool", k.id, pl.name, n))
			}
		}
		if t := k.xport.xmit; t != nil {
			if d := t.describe(); d != "" {
				out = append(out, fmt.Sprintf("%s: %s", xmitName(k.id), d))
			}
		}
		for dst, sem := range k.inflight {
			if sem != nil && sem.Count() != MaxInflight {
				out = append(out, fmt.Sprintf("k%d→k%d: %d of %d in-flight credits not returned", k.id, dst, MaxInflight-sem.Count(), MaxInflight))
			}
		}
		for dst := range k.deferred {
			if n := k.deferred[dst].Len(); n > 0 {
				out = append(out, fmt.Sprintf("k%d→k%d: %d forwarded revoke(s) waiting for a credit", k.id, dst, n))
			}
		}
		out = k.xport.audit(out)
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

// audit adds what the transport still holds to the findings of
// CheckQuiescent: requests in aggregation queues, replies in the sink.
func (t *transport) audit(out []string) []string {
	for _, key := range t.queued() {
		out = append(out, fmt.Sprintf("k%d→k%d: %d %v request(s) in an aggregation queue", t.k.id, key.dst, len(t.queues[key].reqs), key.kind))
	}
	reps := 0
	for _, q := range t.repq {
		reps += len(q.reps)
	}
	if reps > 0 {
		out = append(out, fmt.Sprintf("k%d: %d reply(ies) left in the reply sink", t.k.id, reps))
	}
	return out
}
