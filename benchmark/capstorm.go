package main

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// capstorm drives the capability protocol with no service in the way: 64
// closed-loop clients on 8 kernels exchange, derive, delegate and revoke
// per the generated script (script.go). The lossy variant runs the same
// script over a fabric that drops 1% of the inter-kernel messages, with the
// exchange and revoke transports batched, so the reliable and the batched
// paths of the same code carry the load.
type stormWorkload struct {
	shape stormShape
	lossy bool

	script *stormScript
	faults *fault.Plan
	pool   *sim.Pool
}

func (w *stormWorkload) setup(seed uint64) (heapReading, error) {
	w.script = genStorm(w.shape, seed)
	w.faults = nil
	if w.lossy {
		w.faults = &fault.Plan{Seed: seed, Drop: 0.01}
	}
	w.pool = sim.NewPool()
	var heap heapReading
	if warm := w.simulate(nil, -1, &heap); warm.Failed > 0 {
		return heap, fmt.Errorf("warm-up pass: %d of %d operations failed: %v", warm.Failed, warm.Attempted, warm.Problems)
	}
	return heap, nil
}

func (w *stormWorkload) pass(t *tracer, parent int, _ *hostClock) passResult {
	return w.simulate(t, parent, nil)
}

// barrier parks simulated clients until all n have arrived, then releases
// them together; last, if set, runs on the last arrival before the release.
type barrier struct {
	eng     *sim.Engine
	n       int
	arrived int
	gate    *sim.Future[struct{}]
}

func newBarrier(eng *sim.Engine, n int) *barrier {
	return &barrier{eng: eng, n: n, gate: sim.NewFuture[struct{}](eng)}
}

func (b *barrier) wait(p *sim.Proc, last func()) {
	b.arrived++
	if b.arrived < b.n {
		b.gate.Wait(p)
		return
	}
	if last != nil {
		last()
	}
	gate := b.gate
	b.arrived, b.gate = 0, sim.NewFuture[struct{}](b.eng)
	gate.Complete(struct{}{})
}

// simulate executes the script once. With heap set it reads the live heap
// while the last epoch's forest stands.
func (w *stormWorkload) simulate(t *tracer, parent int, heap *heapReading) passResult {
	shape := w.shape
	res := passResult{Attempted: shape.ops()}
	// Sized exactly, so that filing latencies allocates the same on every
	// commit and nothing on the way.
	for kind, n := range shape.opsByKind() {
		res.Sim.ByKind[kind] = make([]uint64, 0, n*shape.clients()*shape.Epochs)
	}
	res.Sim.ClientOps = make([]uint64, 0, res.Attempted)
	run := &coreRun{res: &res, t: t, parent: parent}
	t.reserve(res.Attempted)

	build := t.begin("core.build", parent)
	eng := w.pool.Get()
	cfg := core.Config{Kernels: shape.Kernels, UserPEs: shape.clients(), Engine: eng}
	if w.lossy {
		cfg.IKCBatching = core.IKCBatching{Exchange: true, Revoke: true}
		cfg.Faults = w.faults
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		res.fail(res.Attempted, "building the machine: %v", err)
		t.end(build)
		return res
	}

	clients := make([]*core.VPE, shape.clients())
	roots := make([]cap.Selector, shape.clients())
	bar := newBarrier(sys.Eng, shape.clients())
	kindOf := func(local, span opKind, i, n int) opKind {
		if i < n/2 {
			return local
		}
		return span
	}
	// exchange is the middle of a client's epoch: obtain from peers and
	// derive from what it got, derive from its own root and delegate away.
	exchange := func(v *core.VPE, p *sim.Proc, root cap.Selector, step clientEpoch) {
		for i, peer := range step.ObtainFrom {
			t0 := p.Now()
			sel, err := v.ObtainFrom(p, clients[peer].ID, roots[peer])
			if !run.op(p, kindOf(opObtainLocal, opObtainSpan, i, len(step.ObtainFrom)), t0, err) {
				continue
			}
			for j := 0; j < shape.PerObtain; j++ {
				t0 = p.Now()
				_, err = v.DeriveMem(p, sel, 0, 64, dtu.PermR)
				run.op(p, opDerive, t0, err)
			}
		}
		for i, peer := range step.DelegateTo {
			t0 := p.Now()
			child, err := v.DeriveMem(p, root, 0, 64, dtu.PermR)
			if !run.op(p, opDerive, t0, err) {
				continue
			}
			t0 = p.Now()
			_, err = v.DelegateTo(p, clients[peer].ID, child)
			run.op(p, kindOf(opDelegateLocal, opDelegateSpan, i, len(step.DelegateTo)), t0, err)
		}
	}
	program := func(c int) core.Program {
		return func(v *core.VPE, p *sim.Proc) {
			for e := 0; e < shape.Epochs; e++ {
				root, err := v.AllocMem(p, 4096, dtu.PermRW)
				if err != nil {
					res.fail(0, "alloc root: %v", err)
				}
				roots[c] = root
				bar.wait(p, nil)
				exchange(v, p, root, w.script.Steps[e][c])
				var last func()
				if e == shape.Epochs-1 && heap != nil {
					// The last epoch's forest stands. Host-side only: this
					// reads no simulated state, so the simulation cannot tell.
					last = func() { heap.Bytes = readHeap() }
				}
				bar.wait(p, last)
				t0 := p.Now()
				run.op(p, opRevoke, t0, v.Revoke(p, root))
			}
			run.done(p)
		}
	}
	for c := range clients {
		clients[c], err = sys.SpawnOn(sys.UserPEs()[c], fmt.Sprintf("c%d", c), program(c))
		if err != nil {
			res.fail(res.Attempted, "spawning client %d: %v", c, err)
			sys.Close()
			t.end(build)
			return res
		}
	}
	t.end(build)

	run.execute(sys, w.pool, eng, cfg.Faults == nil)
	return res
}
