// Package script states a capability-operation sequence as a value and
// plays it on a core.System. A script is one op list per VPE; ops of
// different VPEs order themselves through count-down latches. Run spawns
// one proc per VPE, drives the VPE API the way a hand-written test or
// benchmark body would, and returns one Record per op: when it started and
// ended, the selector it produced and its error. A failed op is data — the
// run goes on — so the same script serves a lossless microbenchmark, which
// turns a failure into its error, and a fault sweep, which counts it.
package script

import (
	"errors"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// Kind is what an op does.
type Kind uint8

const (
	// Alloc allocates a 4 KiB read-write memory capability.
	Alloc Kind = iota
	// Derive derives a 64-byte read-only capability from Ref's.
	Derive
	// Obtain obtains Ref's capability from Ref's VPE.
	Obtain
	// Revoke revokes Ref's capability (one of the VPE's own).
	Revoke
	// Wait parks until latch Latch is open.
	Wait
	// SleepUntil sleeps until simulated time At (no-op once past it).
	SleepUntil
	// Serve registers the script's service, which hands Ref's capability to
	// every session obtaining through it, counts its latch down and serves
	// until the machine stops. It must be its VPE's last op.
	Serve
	// Session opens a session to the script's service and obtains through
	// it.
	Session
)

// service is the name the Serve op registers and Session connects to.
const service = "script"

// Ref names an op of the script absolutely: op Op of VPE VPE. A selector
// argument is the selector that op produced. The zero Ref is VPE 0's first
// op.
type Ref struct{ VPE, Op int }

// Op is one step of a VPE's list. Latch is the latch a Wait waits on and
// the latch any other op counts down when it ends; 0 is none. A latch's
// count is the number of ops that count it down, so one nobody counts down
// is open from the start.
type Op struct {
	Kind  Kind
	Ref   Ref
	Latch int
	At    sim.Time
}

// VPE is one VPE of a script: the user PE it runs on and its ops. VPEs with
// identical op lists may share one slice.
type VPE struct {
	PE  int
	Ops []Op
}

// Script is a script's VPEs; Run spawns them in this order.
type Script []VPE

// Record is what one op did: its simulated start and end (as its VPE's
// proc reads the clock), the selector it produced and its error.
type Record struct {
	Start, End sim.Time
	Sel        cap.Selector
	Err        error
}

// Took is the op's latency.
func (r Record) Took() sim.Duration { return r.End - r.Start }

// ErrRefFailed fails an op whose selector argument's op failed.
var ErrRefFailed = errors.New("script: referenced op failed")

// Failures counts the failed ops of recs and returns the first failure.
func Failures(recs ...[]Record) (n int, first error) {
	for _, rs := range recs {
		for _, r := range rs {
			if r.Err != nil {
				if n++; first == nil {
					first = r.Err
				}
			}
		}
	}
	return n, first
}

// Groups returns the user PEs of sys grouped by kernel, in UserPEs order.
func Groups(sys *core.System) [][]int {
	g := make([][]int, sys.Kernels())
	for _, pe := range sys.UserPEs() {
		k := sys.KernelOfPE(pe).ID()
		g[k] = append(g[k], pe)
	}
	return g
}

type runner struct {
	sc      Script
	vpes    []*core.VPE
	recs    [][]Record
	latches []sim.WaitGroup
	onStart func(vpe, op int)
}

// Run spawns sc's VPEs on sys, in order, runs sys until it drains and
// returns the records, recs[vpe][op]. onStart, if not nil, is called as
// each op starts, before its Start is read. A spawn that fails panics: the
// script names a PE that is not a free user PE of sys.
func Run(sys *core.System, sc Script, onStart func(vpe, op int)) [][]Record {
	r := &runner{sc: sc, vpes: make([]*core.VPE, len(sc)), recs: make([][]Record, len(sc)), onStart: onStart}
	n := 0
	for _, v := range sc {
		for _, op := range v.Ops {
			if op.Latch >= len(r.latches) {
				r.latches = append(r.latches, make([]sim.WaitGroup, op.Latch+1-len(r.latches))...)
			}
			if op.Kind != Wait && op.Latch != 0 {
				r.latches[op.Latch].Add(1)
			}
		}
		n += len(v.Ops)
	}
	flat, play := make([]Record, n), r.play // one program value for every VPE
	for i, v := range sc {
		r.recs[i], flat = flat[:len(v.Ops):len(v.Ops)], flat[len(v.Ops):]
		var err error
		if r.vpes[i], err = sys.SpawnOn(v.PE, "script", play); err != nil {
			panic(err)
		}
	}
	sys.Run()
	return r.recs
}

// play is every VPE's program; VPE IDs are consecutive in spawn order.
func (r *runner) play(v *core.VPE, p *sim.Proc) {
	i := v.ID - r.vpes[0].ID
	for j, op := range r.sc[i].Ops {
		if r.onStart != nil {
			r.onStart(i, j)
		}
		rec := &r.recs[i][j]
		rec.Start = p.Now()
		rec.Sel, rec.Err = r.do(v, p, op)
		rec.End = p.Now()
		if op.Kind != Wait && op.Latch != 0 {
			r.latches[op.Latch].Done()
		}
		if op.Kind == Serve && rec.Err == nil {
			v.ServeLoop(p)
		}
	}
}

func (r *runner) do(v *core.VPE, p *sim.Proc, op Op) (cap.Selector, error) {
	var ref Record
	switch op.Kind {
	case Derive, Obtain, Revoke, Serve:
		if ref = r.recs[op.Ref.VPE][op.Ref.Op]; ref.Err != nil {
			return 0, ErrRefFailed
		}
	}
	switch op.Kind {
	case Alloc:
		return v.AllocMem(p, 4096, dtu.PermRW)
	case Derive:
		return v.DeriveMem(p, ref.Sel, 0, 64, dtu.PermR)
	case Obtain:
		return v.ObtainFrom(p, r.vpes[op.Ref.VPE].ID, ref.Sel)
	case Revoke:
		return 0, v.Revoke(p, ref.Sel)
	case Wait:
		r.latches[op.Latch].Wait(p)
	case SleepUntil:
		if now := p.Now(); op.At > now { // sim.Time is unsigned
			p.Sleep(op.At - now)
		}
	case Serve:
		var idents uint64
		return 0, v.RegisterService(p, service, core.ServiceHandlers{
			Open: func(*sim.Proc, int, any) core.SvcResult {
				idents++
				return core.SvcResult{Ident: idents}
			},
			Obtain: func(*sim.Proc, uint64, any) core.SvcResult { return core.SvcResult{SrcSel: ref.Sel} },
		})
	case Session:
		sess, err := v.CreateSession(p, service, nil)
		if err != nil {
			return 0, err
		}
		sel, _, err := sess.Obtain(p, nil)
		return sel, err
	}
	return 0, nil
}
