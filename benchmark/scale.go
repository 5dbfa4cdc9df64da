package main

import (
	"fmt"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/sim"
)

// scale is the one workload on which tables and memory dominate: a machine
// far past the architectural limits (core.Config.RelaxLimits) whose every
// client mints a root and CapsPer children, one client per foreign kernel
// obtains the first client's root, and that root's machine-wide tree is
// then revoked. It is the 256-kernel point of `semperos-bench -experiment
// scale`, rebuilt on core's public API so that the benchmark holds the
// machine while the forest stands and can read the heap and audit it.
type scaleShape struct {
	Kernels, Clients, CapsPer int
}

// paperScale mints 512*(256+2)+255 = 132 351 capabilities.
var paperScale = scaleShape{Kernels: 256, Clients: 512, CapsPer: 256}

// ops counts the capability operations of one pass: the derives, one
// spanning obtain per foreign kernel and the revoke.
func (s scaleShape) ops() int { return s.Clients*s.CapsPer + s.Kernels - 1 + 1 }

type scaleWorkload struct {
	shape scaleShape
	pool  *sim.Pool
}

func (w *scaleWorkload) setup(uint64) (heapReading, error) {
	w.pool = sim.NewPool()
	var heap heapReading
	if warm := w.simulate(nil, -1, &heap); warm.Failed > 0 {
		return heap, fmt.Errorf("warm-up pass: %d of %d operations failed: %v", warm.Failed, warm.Attempted, warm.Problems)
	}
	return heap, nil
}

func (w *scaleWorkload) pass(t *tracer, parent int, _ *hostClock) passResult {
	return w.simulate(t, parent, nil)
}

// simulate builds the forest once and revokes the first client's tree. With
// heap set it reads the live heap while the whole forest stands.
func (w *scaleWorkload) simulate(t *tracer, parent int, heap *heapReading) passResult {
	shape := w.shape
	res := passResult{Attempted: shape.ops()}
	res.Sim.ByKind[opDerive] = make([]uint64, 0, res.Attempted)
	res.Sim.ClientOps = make([]uint64, 0, res.Attempted)
	run := &coreRun{res: &res, t: t, parent: parent}
	t.reserve(res.Attempted)

	build := t.begin("core.build", parent)
	eng := w.pool.Get()
	sys, err := core.NewSystem(core.Config{
		Kernels:     shape.Kernels,
		UserPEs:     shape.Clients,
		RelaxLimits: true,
		Engine:      eng,
	})
	if err != nil {
		res.fail(res.Attempted, "building the machine: %v", err)
		t.end(build)
		return res
	}

	mint := func(v *core.VPE, p *sim.Proc) cap.Selector {
		root, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			res.fail(0, "alloc root: %v", err)
			return 0
		}
		for j := 0; j < shape.CapsPer; j++ {
			t0 := p.Now()
			_, err := v.DeriveMem(p, root, 0, 64, dtu.PermR)
			run.op(p, opDerive, t0, err)
		}
		return root
	}
	rootReady := sim.NewFuture[cap.Selector](sys.Eng)
	var built sim.WaitGroup
	var owner *core.VPE
	// The first client of kernel 0 owns the machine-wide tree.
	ownerProg := func(v *core.VPE, p *sim.Proc) {
		root := mint(v, p)
		rootReady.Complete(root)
		built.Wait(p)
		if heap != nil {
			// The whole forest stands. Host-side only: this changes no
			// simulated state, so the simulation cannot tell.
			st := sys.TotalStats()
			*heap = heapReading{Bytes: readHeap(), Caps: st.CapsCreated - st.CapsDeleted}
		}
		t0 := p.Now()
		run.op(p, opRevoke, t0, v.Revoke(p, root))
		res.Sim.RevokeMachine = uint64(p.Now() - t0)
		run.done(p)
	}
	// Every other client mints; the first of each foreign kernel also hangs
	// a capability of its own into the owner's tree.
	peerProg := func(spanning bool) core.Program {
		return func(v *core.VPE, p *sim.Proc) {
			mint(v, p)
			if spanning {
				root := rootReady.Wait(p)
				t0 := p.Now()
				_, err := v.ObtainFrom(p, owner.ID, root)
				run.op(p, opObtainSpan, t0, err)
			}
			run.done(p)
			built.Done()
		}
	}
	seenGroup := make([]bool, shape.Kernels)
	for i, pe := range sys.UserPEs() {
		group := sys.KernelOfPE(pe).ID()
		firstOfGroup := !seenGroup[group]
		seenGroup[group] = true
		prog := ownerProg
		if i > 0 {
			built.Add(1)
			prog = peerProg(firstOfGroup)
		}
		v, err := sys.SpawnOn(pe, fmt.Sprintf("c%d", i), prog)
		if err != nil {
			res.fail(res.Attempted, "spawning client %d: %v", i, err)
			sys.Close()
			t.end(build)
			return res
		}
		if i == 0 {
			owner = v
		}
	}
	t.end(build)

	run.execute(sys, w.pool, eng, true)
	return res
}
