package sim

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// buildIsolated wires a D-domain engine for isolated rounds with the given
// lookahead.
func buildIsolated(domains int, lookahead Duration) (*Engine, []*Domain) {
	e := NewEngine()
	doms := make([]*Domain, domains)
	for i := 1; i < domains; i++ {
		doms[i] = e.NewDomain()
	}
	doms[0] = e.Domain(0)
	e.SetIsolated(true)
	e.SetLookahead(lookahead)
	return e, doms
}

// fanInBit tags the trace entries of ringTrace's fan-in posts: the value is
// fanInBit | source domain << 8 | append position.
const fanInBit = 1 << 40

// ringTrace runs a deterministic multi-domain workload — every domain runs a
// local event cascade and posts tokens around the ring, and every domain but
// 0 also posts two events to domain 0 for one common instant — and returns
// the per-domain execution traces as (local time, token) pairs.
func ringTrace(domains int, hops int) [][][2]uint64 {
	const L = Duration(7)
	e, doms := buildIsolated(domains, L)
	traces := make([][][2]uint64, domains)
	var hop func(dst int, token uint64)
	hop = func(dst int, token uint64) {
		dm := doms[dst]
		traces[dst] = append(traces[dst], [2]uint64{uint64(dm.Now()), token})
		// Local cascade: a same-instant lane event plus a short heap event,
		// exercising both lanes against the domain-local clock.
		dm.Schedule(0, func() {
			traces[dst] = append(traces[dst], [2]uint64{uint64(dm.Now()), token | 1<<32})
		})
		dm.Schedule(2, func() {
			traces[dst] = append(traces[dst], [2]uint64{uint64(dm.Now()), token | 2<<32})
		})
		if int(token) < hops {
			dm.Post(doms[(dst+1)%domains], L, func() { hop((dst+1)%domains, token+1) })
		}
	}
	for d := range doms {
		d := d
		doms[d].Schedule(Duration(d+1), func() { hop(d, 0) })
	}
	// Fan-in: sources post in descending id from one round (their events at
	// t=1 all lie below the first horizon) and land on domain 0 at t=21.
	for d := domains - 1; d >= 1; d-- {
		d := d
		doms[d].Schedule(1, func() {
			for i := uint64(0); i < 2; i++ {
				tag := fanInBit | uint64(d)<<8 | i
				doms[d].Post(doms[0], 20, func() {
					traces[0] = append(traces[0], [2]uint64{uint64(doms[0].Now()), tag})
				})
			}
		})
	}
	e.Run()
	return traces
}

// TestIsolatedRoundsDeterminism: the isolated-rounds acceptance criterion —
// two runs give identical execution traces, including the domain-local
// timestamps — and the mailbox order it rests on: posts from different
// domains to one destination for the same instant within one round arrive
// source-major, then in append order.
func TestIsolatedRoundsDeterminism(t *testing.T) {
	for _, domains := range []int{2, 4} {
		base := ringTrace(domains, 40)
		if got := ringTrace(domains, 40); !reflect.DeepEqual(got, base) {
			t.Fatalf("domains %d: two runs gave different traces", domains)
		}
		var fanIn []uint64
		for _, ev := range base[0] {
			if ev[1]&fanInBit != 0 {
				if ev[0] != 21 {
					t.Fatalf("domains %d: fan-in post ran at %d, want 21", domains, ev[0])
				}
				fanIn = append(fanIn, ev[1]&^fanInBit)
			}
		}
		var want []uint64
		for d := 1; d < domains; d++ {
			want = append(want, uint64(d)<<8, uint64(d)<<8|1)
		}
		if !reflect.DeepEqual(fanIn, want) {
			t.Fatalf("domains %d: fan-in order %#x, want source-major then append order %#x", domains, fanIn, want)
		}
	}
}

// TestIsolatedMatchesMerged: the same ring workload executed merged (isolated
// unset — the order-preserving loop) produces the same per-domain event
// counts, and Pending drains to zero either way.
func TestIsolatedMatchesMerged(t *testing.T) {
	const L = Duration(7)
	run := func(isolated bool) []uint64 {
		e, doms := buildIsolated(3, L)
		e.SetIsolated(isolated)
		var hop func(dst int, token int)
		hop = func(dst int, token int) {
			if token < 30 {
				doms[dst].Post(doms[(dst+1)%3], L, func() { hop((dst+1)%3, token+1) })
			}
		}
		doms[0].Schedule(1, func() { hop(0, 0) })
		e.Run()
		if e.Pending() != 0 {
			t.Fatalf("isolated=%v: %d events left pending", isolated, e.Pending())
		}
		counts := make([]uint64, 3)
		for i, st := range e.DomainStats() {
			counts[i] = st.Events
		}
		return counts
	}
	iso, merged := run(true), run(false)
	for d := range iso {
		if iso[d] != merged[d] {
			t.Fatalf("domain %d executed %d events isolated, %d merged", d, iso[d], merged[d])
		}
	}
}

// TestIsolatedProcs: procs spawned on isolated domains (Domain.Spawn) sleep
// and finish under isolated rounds, with the domain-local clock visible
// through Proc.Now.
func TestIsolatedProcs(t *testing.T) {
	e, doms := buildIsolated(4, 5)
	ends := make([]Time, 4)
	for d := range doms {
		d := d
		doms[d].Spawn("p", func(p *Proc) {
			for i := 0; i < 10; i++ {
				p.Sleep(3)
			}
			ends[d] = p.Now()
		})
	}
	e.Run()
	for d, end := range ends {
		if end != 30 {
			t.Fatalf("domain %d proc finished at %d, want 30", d, end)
		}
	}
	if e.Now() < 30 {
		t.Fatalf("global clock %d did not advance past the rounds", e.Now())
	}
}

// TestPostBelowLookaheadPanics: a cross-domain post with a delay below the
// lookahead would break the horizon-safety argument, so it must panic (the
// fault surfaces from Run on the driving goroutine).
func TestPostBelowLookaheadPanics(t *testing.T) {
	e, doms := buildIsolated(2, 10)
	doms[0].Schedule(1, func() {
		doms[0].Post(doms[1], 9, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("post below the lookahead did not panic")
		}
		if msg, ok := r.(error); !ok || !strings.Contains(msg.Error(), "below the lookahead") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e.Run()
}

// TestEngineScheduleDuringRoundsPanics: context-free Engine.Schedule has no
// defined lane while domains run against their own clocks; it must fail
// loudly instead of corrupting a lane.
func TestEngineScheduleDuringRoundsPanics(t *testing.T) {
	e, doms := buildIsolated(2, 5)
	doms[1].Schedule(1, func() {
		e.Schedule(1, func() {})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Engine.Schedule during isolated rounds did not panic")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "isolated rounds") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	e.Run()
}

// TestDomainStats: event counts are exact and deterministic; busy wallclock
// never goes negative.
func TestDomainStats(t *testing.T) {
	e, doms := buildIsolated(2, 5)
	for i := 0; i < 8; i++ {
		doms[i%2].Schedule(Duration(i+1), func() {})
	}
	e.Run()
	st := e.DomainStats()
	if len(st) != 2 {
		t.Fatalf("DomainStats has %d entries, want 2", len(st))
	}
	if st[0].Events != 4 || st[1].Events != 4 {
		t.Fatalf("event counts = %d/%d, want 4/4", st[0].Events, st[1].Events)
	}
	for d, s := range st {
		if s.Busy < 0 {
			t.Fatalf("domain %d has negative wallclock: %+v", d, s)
		}
	}
	if NewEngine().DomainStats() != nil {
		t.Fatal("sequential engine reports DomainStats")
	}
}

// TestResetDropsDomains: a recycled engine starts sequential again — extra
// domains gone, the root lane usable, Schedule back on the fast path.
func TestResetDropsDomains(t *testing.T) {
	e, doms := buildIsolated(3, 5)
	doms[2].Post(doms[0], 5, func() {})
	doms[1].Schedule(3, func() {})
	e.Reset()
	if e.Domains() != 1 {
		t.Fatalf("Domains() = %d after Reset, want 1", e.Domains())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after Reset", e.Pending())
	}
	ran := false
	e.Schedule(2, func() { ran = true })
	e.Run()
	if !ran || e.Now() != 2 {
		t.Fatalf("recycled engine broken: ran=%v now=%d", ran, e.Now())
	}
}

// TestRoundAllocationLinearInDomains: a 1024-domain engine running one
// trivial round allocates O(D) — the round's next-timestamp cache and one
// mailbox — not the O(D²) a mailbox per (source, destination) pair costs
// (1024² slice headers are 25 MB).
func TestRoundAllocationLinearInDomains(t *testing.T) {
	const D = 1024
	e, doms := buildIsolated(D, 5)
	for _, dm := range doms {
		dm.Schedule(1, func() {})
	}
	doms[1].Schedule(1, func() { doms[1].Post(doms[0], 5, func() {}) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Run()
	runtime.ReadMemStats(&after)
	if e.Executed() != D+2 {
		t.Fatalf("executed %d events, want %d", e.Executed(), D+2)
	}
	const ceiling = 64 * D // bytes; the run needs about 8·D
	if got := after.TotalAlloc - before.TotalAlloc; got > ceiling {
		t.Fatalf("one round over %d domains allocated %d bytes, want at most %d", D, got, ceiling)
	}
}
