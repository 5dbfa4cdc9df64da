package main

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// coreRun is the bookkeeping shared by the workloads that drive core
// directly (capstorm, scale): it times every capability operation the
// simulated clients issue and, once the machine has run dry, audits it and
// reads its counters.
type coreRun struct {
	res    *passResult
	t      *tracer
	parent int

	returned int
	makespan sim.Time
}

// op files one capability operation that started at start and has just
// returned err to client proc p. It reports whether the operation succeeded.
func (c *coreRun) op(p *sim.Proc, kind opKind, start sim.Time, err error) bool {
	if err != nil {
		c.res.fail(0, "%s: %v", opKindNames[kind], err)
		return false
	}
	c.returned++
	c.res.Sim.record(kind, start, p.Now())
	c.t.simOp(kind, c.parent, uint64(start), uint64(p.Now()))
	return true
}

// done notes that a client finished its script.
func (c *coreRun) done(p *sim.Proc) { c.makespan = max(c.makespan, p.Now()) }

// execute runs the built machine dry, audits it and tears it down, each
// under its own span; eng goes back to pool.
func (c *coreRun) execute(sys *core.System, pool *sim.Pool, eng *sim.Engine, lossless bool) {
	id := c.t.begin("core.run", c.parent)
	sys.Run()
	c.t.end(id)

	id = c.t.begin("core.audit", c.parent)
	c.finish(sys, lossless)
	c.t.end(id)

	id = c.t.begin("core.close", c.parent)
	sys.Close()
	pool.Put(eng)
	c.t.end(id)
}

// finish audits the quiescent machine and fills in the pass's simulated
// statistics. Every scripted operation that has not returned without an
// error by now is a failure, whether it returned one or never returned.
// The audit is what the program offers: no leaked or half-exchanged
// capability anywhere, every kernel's table consistent, and — on a lossless
// fabric — no NoC message lost.
func (c *coreRun) finish(sys *core.System, lossless bool) {
	res := c.res
	res.Failed += res.Attempted - c.returned
	if c.returned < res.Attempted && len(res.Problems) == 0 {
		res.fail(0, "%d operations had not returned at quiescence", res.Attempted-c.returned)
	}
	for _, leak := range sys.CheckLeaks() {
		res.fail(1, "leak: %s", leak)
	}
	for k := 0; k < sys.Kernels(); k++ {
		if err := sys.Kernel(k).Store().CheckLocalInvariants(); err != nil {
			res.fail(1, "kernel %d table: %v", k, err)
		}
	}
	if lost := sys.Net.Stats().Lost; lossless && lost > 0 {
		res.fail(int(lost), "%d NoC messages lost on a lossless fabric", lost)
	}

	res.Counts.addSystem(sys, c.makespan)
	res.Sim.CapOps = uint64(c.returned)
	res.Sim.Makespan = uint64(c.makespan)
	d := newDigest()
	for _, lats := range res.Sim.ByKind {
		d.u64(uint64(len(lats)))
		d.u64(lats...)
	}
	d.u64(res.Sim.Makespan, res.Sim.RevokeMachine)
	res.Counts.digest(d)
	res.Sim.Digest = d.sum()
}
