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
	// Obtain obtains Ref's capability from Ref's VPE or, with Session,
	// opens a session to the script's service and obtains through it; the
	// service hands out its Serve's Ref, which Ref then names too.
	Obtain
	// Delegate delegates Ref's capability (one of the VPE's own) to VPE To
	// or, with Session, opens a session to the script's service and
	// delegates it into that.
	Delegate
	// Revoke revokes Ref's capability (one of the VPE's own).
	Revoke
	// Exit exits the VPE, which revokes all its capabilities.
	Exit
	// Kill kills VPE To at once, without a syscall (core.VPE.Kill): the
	// fault model of Table 2.
	Kill
	// Wait parks until latch Latch is open.
	Wait
	// SleepUntil sleeps until simulated time At (no-op once past it).
	SleepUntil
	// Sleep sleeps for At cycles from its start: a delay that follows the op
	// before it wherever the placement puts that.
	Sleep
	// Serve registers the script's service, which hands Ref's capability to
	// every session obtaining through it and decides on every capability
	// delegated into one, counts its latch down and serves until the machine
	// stops. It must be its VPE's last op.
	Serve
	// Consent makes the VPE the direct partner of exchanges with it
	// (core.VPE.OnExchange), counts its latch down and parks for good. It
	// must be its VPE's last op.
	Consent
)

// Open, Obtain, Delegate and Request make the runner the service a Serve op
// registers (core.ServiceHandlers): it opens every session, hands out the
// Serve's Ref to every session obtaining through it, and decides on every
// exchange as the Serve says.
func (r *runner) Open(*sim.Proc, int, any) core.SvcResult {
	r.idents++
	return core.SvcResult{Ident: r.idents}
}

func (r *runner) Obtain(p *sim.Proc, _ uint64, _ any) core.SvcResult {
	if !r.decide(p) {
		return core.SvcResult{Errno: core.ErrDenied}
	}
	return core.SvcResult{SrcSel: r.src}
}

func (r *runner) Delegate(p *sim.Proc, _ uint64, _ any, _ cap.Object) core.SvcResult {
	return core.SvcResult{Accept: r.decide(p)}
}

func (r *runner) Request(*sim.Proc, uint64, any) any { return nil }

// decide is the service's consent to one exchange.
func (r *runner) decide(p *sim.Proc) bool {
	if r.serve.Asked == 0 {
		return !r.serve.Deny
	}
	p.Settle() // the latch publishes: the query's cost passes first
	defer p.Sleep(r.sys.Cost.VPEAccept)
	return r.asked(r.serve)
}

// service is the name the Serve op registers and a Session exchange
// connects to.
const service = "script"

// Ref names an op of the script absolutely: op Op of VPE VPE. A selector
// argument is the selector that op produced. The zero Ref is VPE 0's first
// op.
type Ref struct{ VPE, Op int }

// Op is one step of a VPE's list. Latch is the latch a Wait waits on and
// the latch any other op counts down when it ends; 0 is none. A latch's
// count is the number of ops that count it down, so one nobody counts down
// is open from the start.
//
// Consent is data: a Serve or Consent op counts latch Asked down when its
// VPE is asked to consent to an exchange while the latch is closed, and
// refuses every exchange if Deny is set. A Serve with an Asked latch takes
// the machine's VPEAccept to decide, as the kernel times a direct
// partner's decision.
type Op struct {
	Kind             Kind
	Session, Deny    bool
	Ref              Ref
	To, Latch, Asked int
	At               sim.Time
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
	sys     *core.System
	sc      Script
	vpes    []*core.VPE
	recs    [][]Record
	latches []sim.WaitGroup
	onStart func(vpe, op int)
	// The Serve op, the selector its service hands out, and its sessions.
	serve  Op
	src    cap.Selector
	idents uint64
}

// Run spawns sc's VPEs on sys, in order, runs sys until it drains and
// returns the records, recs[vpe][op]. onStart, if not nil, is called as
// each op starts, before its Start is read. A spawn that fails panics: the
// script names a PE that is not a free user PE of sys.
func Run(sys *core.System, sc Script, onStart func(vpe, op int)) [][]Record {
	recs := Start(sys, sc, onStart)
	sys.Run()
	return recs
}

// Start is Run without running sys: the records fill in as its caller runs
// the machine.
func Start(sys *core.System, sc Script, onStart func(vpe, op int)) [][]Record {
	r := &runner{sys: sys, sc: sc, vpes: make([]*core.VPE, len(sc)), recs: make([][]Record, len(sc)), onStart: onStart}
	n := 0
	for _, v := range sc {
		for _, op := range v.Ops {
			if m := max(op.Latch, op.Asked) + 1; m > len(r.latches) {
				r.latches = append(r.latches, make([]sim.WaitGroup, m-len(r.latches))...)
			}
			if op.Kind != Wait && op.Latch != 0 {
				r.latches[op.Latch].Add(1)
			}
			if op.Asked != 0 {
				r.latches[op.Asked].Add(1)
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
		switch {
		case op.Kind == Serve && rec.Err == nil:
			v.ServeLoop(p)
		case op.Kind == Consent:
			p.Park()
		}
	}
}

// asked is a Serve's or a Consent's answer to an exchange.
func (r *runner) asked(op Op) bool {
	if l := &r.latches[op.Asked]; l.Count() > 0 {
		l.Done()
	}
	return !op.Deny
}

func (r *runner) do(v *core.VPE, p *sim.Proc, op Op) (cap.Selector, error) {
	var ref Record
	switch op.Kind {
	case Derive, Obtain, Delegate, Revoke, Serve:
		if ref = r.recs[op.Ref.VPE][op.Ref.Op]; ref.Err != nil {
			return 0, ErrRefFailed
		}
	}
	switch op.Kind {
	case Alloc:
		return v.AllocMem(p, 4096, dtu.PermRW)
	case Derive:
		return v.DeriveMem(p, ref.Sel, 0, 64, dtu.PermR)
	case Obtain, Delegate:
		switch {
		case !op.Session && op.Kind == Obtain:
			return v.ObtainFrom(p, r.vpes[op.Ref.VPE].ID, ref.Sel)
		case !op.Session:
			return v.DelegateTo(p, r.vpes[op.To].ID, ref.Sel)
		}
		sess, err := v.CreateSession(p, service, nil)
		if err != nil {
			return 0, err
		}
		if op.Kind == Obtain {
			sel, _, err := sess.Obtain(p, nil)
			return sel, err
		}
		_, err = sess.Delegate(p, ref.Sel, nil)
		return 0, err
	case Revoke:
		return 0, v.Revoke(p, ref.Sel)
	case Exit:
		v.Exit(p)
	case Kill:
		r.vpes[op.To].Kill()
	case Wait:
		r.latches[op.Latch].Wait(p)
	case SleepUntil:
		if now := p.Now(); op.At > now { // sim.Time is unsigned
			p.Sleep(op.At - now)
		}
	case Sleep:
		p.Sleep(sim.Duration(op.At))
	case Serve:
		r.serve, r.src = op, ref.Sel
		return 0, v.RegisterService(p, service, r)
	case Consent:
		v.OnExchange = func(core.ExchangeQuery) core.ExchangeAnswer { return core.ExchangeAnswer{Accept: r.asked(op)} }
	}
	return 0, nil
}
