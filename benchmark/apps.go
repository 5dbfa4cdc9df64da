package main

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
	wl "repro/internal/workload"
)

// apps is the paper's application result at the paper's size: each of the
// six traced applications replayed by 512 closed-loop instances against 64
// m3fs services on 64 kernels (Table 4), plus one instance alone on the
// same machine, the baseline of parallel efficiency (Fig. 6). The work is
// service loops, session calls, DTU and NoC messaging and proc hand-offs;
// capability code is a small share of it.
type appsShape struct {
	Kernels, Services, Instances int
}

var paperApps = appsShape{Kernels: 64, Services: 64, Instances: 512}

type appsWorkload struct {
	shape  appsShape
	traces []*trace.Trace
	pool   *sim.Pool
}

func (w *appsWorkload) setup(uint64) (heapReading, error) {
	w.traces = trace.All()
	w.pool = sim.NewPool()
	if warm := w.pass(nil, -1, nil); warm.Failed > 0 {
		return heapReading{}, fmt.Errorf("warm-up pass: %d of %d instances failed: %v", warm.Failed, warm.Attempted, warm.Problems)
	}
	return keptHeap(), nil
}

func (w *appsWorkload) pass(t *tracer, parent int, host *hostClock) passResult {
	var res passResult
	d := newDigest()
	var effSum float64
	// run replays one trace by n instances and returns their mean runtime.
	run := func(span string, tr *trace.Trace, n int) (mean uint64, ok bool) {
		res.Attempted += n
		id := t.begin(span, parent)
		eng := w.pool.Get()
		r, err := wl.Run(wl.Config{
			Kernels: w.shape.Kernels, Services: w.shape.Services, Instances: n,
			Trace: tr, Engine: eng,
		})
		events := eng.Executed()
		w.pool.Put(eng)
		t.end(id)
		if err != nil {
			res.fail(n, "%s x%d: %v", tr.Name, n, err)
			return 0, false
		}
		res.Counts.Events += events
		res.Counts.TraceOps += uint64(n * len(tr.Ops))
		res.Counts.NocLost += r.LostMsgs
		res.Counts.addKernel(r.Kernel)
		res.Counts.BusyCapacity += uint64(w.shape.Kernels) * uint64(r.Makespan)
		if r.LostMsgs > 0 {
			res.fail(int(r.LostMsgs), "%s x%d: %d NoC messages lost on a lossless fabric", tr.Name, n, r.LostMsgs)
		}
		d.str(tr.Name)
		d.u64(uint64(n), uint64(r.Makespan), r.TotalCapOps)
		for _, in := range r.Instances {
			d.u64(uint64(in.Start), uint64(in.End), in.CapOps)
		}
		if n == w.shape.Instances {
			// The loaded run is the one Table 4 rates and whose instances
			// are the clients of the latency percentiles.
			res.Sim.CapOps += r.TotalCapOps
			res.Sim.Makespan += uint64(r.Makespan)
			for _, in := range r.Instances {
				res.Sim.ClientOps = append(res.Sim.ClientOps, uint64(in.Runtime()))
			}
		}
		return uint64(r.MeanRuntime()), true
	}
	for i, tr := range w.traces {
		if i > 0 {
			host.lap(t, parent)
		}
		loaded, ok1 := run("workload."+tr.Name, tr, w.shape.Instances)
		alone, ok2 := run("workload.baseline", tr, 1)
		if ok1 && ok2 && loaded > 0 {
			effSum += float64(alone) / float64(loaded)
		}
	}
	res.Sim.Efficiency = effSum / float64(len(w.traces))
	res.Counts.digest(d)
	res.Sim.Digest = d.sum()
	return res
}
