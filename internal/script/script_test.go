package script

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestRunRecords: a latch nobody counts down is open from the start, each
// record's Start and End bracket its op in the order the VPE ran them, the
// hook sees every op as it starts, a Ref reads the producing op's selector,
// and an op whose Ref failed fails without a syscall.
func TestRunRecords(t *testing.T) {
	sys := core.MustNew(core.Config{Kernels: 2, UserPEs: 4})
	defer sys.Close()
	pes := sys.UserPEs()
	sc := Script{
		{PE: pes[0], Ops: []Op{
			{Kind: Wait, Latch: 3}, // nobody counts latch 3 down
			{Kind: Alloc, Latch: 1},
			{Kind: Derive, Ref: Ref{0, 1}},
			{Kind: Wait, Latch: 2},
			{Kind: Revoke, Ref: Ref{0, 1}},
			{Kind: Revoke, Ref: Ref{0, 1}}, // already gone
			{Kind: Derive, Ref: Ref{0, 5}}, // its Ref failed
		}},
		{PE: pes[2], Ops: []Op{
			{Kind: Wait, Latch: 1},
			{Kind: SleepUntil, At: 100_000},
			{Kind: Obtain, Ref: Ref{0, 1}, Latch: 2},
		}},
	}
	type start struct {
		vpe, op int
		at      sim.Time
	}
	var started []start
	recs := Run(sys, sc, func(vpe, op int) { started = append(started, start{vpe, op, sys.Now()}) })
	if found := sys.Audit(); len(found) != 0 {
		t.Fatalf("audit: %s", strings.Join(found, "\n"))
	}
	if len(started) != 10 {
		t.Fatalf("the hook saw %d op starts, want 10: %v", len(started), started)
	}
	for _, s := range started {
		if r := recs[s.vpe][s.op]; r.Start != s.at {
			t.Errorf("op %d.%d started at %d, the hook ran at %d", s.vpe, s.op, r.Start, s.at)
		}
	}
	if w := recs[0][0]; w.Start != w.End || w.Err != nil {
		t.Errorf("an unsignalled latch did not open at once: %+v", w)
	}
	for v, rs := range recs {
		for i, r := range rs {
			if r.Start > r.End || (i > 0 && rs[i-1].End > r.Start) {
				t.Errorf("op %d.%d: [%d, %d] does not bracket its op after the one before", v, i, r.Start, r.End)
			}
		}
	}
	for _, i := range []int{1, 2, 4} {
		if r := recs[0][i]; r.Err != nil || r.Took() == 0 {
			t.Errorf("op 0.%d: %+v, want a syscall that succeeded", i, r)
		}
	}
	if r := recs[1][2]; r.Err != nil || r.Start < 100_000 || r.Sel == 0 {
		t.Errorf("obtain after SleepUntil: %+v", r)
	}
	if recs[0][3].End < recs[1][2].End {
		t.Errorf("the wait ended at %d, before the obtain it waits for (%d)", recs[0][3].End, recs[1][2].End)
	}
	if recs[0][5].Err == nil {
		t.Errorf("revoking a revoked capability succeeded")
	}
	if r := recs[0][6]; !errors.Is(r.Err, ErrRefFailed) || r.Took() != 0 {
		t.Errorf("derive of a failed op: %+v, want ErrRefFailed at once", r)
	}
	if n, first := Failures(recs...); n != 2 || first != recs[0][5].Err {
		t.Errorf("Failures = %d, %v; want 2 and the second revoke's error", n, first)
	}
}

// decode builds a well-formed script from data for up to four VPEs on a
// six-PE machine. Each VPE allocates, derives from and revokes capabilities
// of its own and obtains capabilities that lower-numbered VPEs produced, each
// obtain behind a Wait on the producing op's latch. A VPE waits only for
// lower-numbered ones, so the script cannot deadlock on its latches; what
// may still go wrong is the capability system. Missing bytes read as zero,
// so every input decodes.
func decode(data []byte, pes []int) Script {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n, off, step := 1+next()%4, next(), 1+4*(next()%2) // step 1 or 5 walks all six PEs
	sc := make(Script, n)
	caps := make([][]int, n) // the ops of each VPE that produce a selector
	latches := 0
	for i := range sc {
		sc[i].PE = pes[(off+i*step)%len(pes)]
	}
	for ops := 0; ops < 32 && len(data) > 0; ops++ {
		c, a := next(), next()
		v := c % n
		own := caps[v]
		op := Op{Kind: Alloc}
		switch kind := c / n % 4; {
		case kind == 1 && len(own) > 0:
			op = Op{Kind: Derive, Ref: Ref{v, own[a%len(own)]}}
		case kind == 2 && len(own) > 0:
			op = Op{Kind: Revoke, Ref: Ref{v, own[a%len(own)]}}
		case kind == 3 && v > 0 && len(caps[a%v]) > 0:
			j := a % v
			k := caps[j][a/v%len(caps[j])]
			if sc[j].Ops[k].Latch == 0 {
				latches++
				sc[j].Ops[k].Latch = latches
			}
			sc[v].Ops = append(sc[v].Ops, Op{Kind: Wait, Latch: sc[j].Ops[k].Latch})
			op = Op{Kind: Obtain, Ref: Ref{j, k}}
		}
		if op.Kind != Revoke {
			caps[v] = append(caps[v], len(sc[v].Ops))
		}
		sc[v].Ops = append(sc[v].Ops, op)
	}
	return sc
}

// FuzzScript plays decoded scripts on one, two and three kernels, with and
// without batched exchange and revocation, and checks that every op
// returns and that System.Audit finds the drained machine quiescent, leak-free
// and with sound capability tables. Failed ops are legitimate (obtaining a
// revoked capability, revoking twice); a machine the audit faults is not.
func FuzzScript(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 0, 0},                                     // one VPE, one alloc
		{1, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0},                   // two VPEs: alloc, obtain
		{3, 1, 1, 0, 0, 1, 0, 2, 0, 3, 0, 7, 1, 4, 0, 8, 1}, // four VPEs, a chain of obtains
		{2, 0, 1, 0, 0, 3, 0, 4, 0, 5, 0, 6, 0, 2, 0, 3, 0}, // obtains racing a derive and a revoke
		{3, 2, 0, 0, 0, 4, 0, 1, 0, 5, 0, 11, 0, 15, 1, 9, 0, 2, 1, 6, 0, 3, 0, 10, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for kernels := 1; kernels <= 3; kernels++ {
			for _, pol := range []core.IKCBatching{{}, {Exchange: true, Revoke: true}} {
				eng := sim.NewEngine()
				eng.SetEventLimit(1 << 22)
				sys := core.MustNew(core.Config{Kernels: kernels, UserPEs: 6, IKCBatching: pol, Engine: eng})
				sc := decode(data, sys.UserPEs())
				recs := Run(sys, sc, nil)
				for v, rs := range recs {
					for i, r := range rs {
						if r.End == 0 {
							t.Errorf("%d kernels, %+v: op %d.%d %+v never returned", kernels, pol, v, i, sc[v].Ops[i])
						}
					}
				}
				if found := sys.Audit(); len(found) != 0 {
					t.Errorf("%d kernels, %+v, script %+v:\n  %s", kernels, pol, sc, strings.Join(found, "\n  "))
				}
				sys.Close()
			}
		}
	})
}
