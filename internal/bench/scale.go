package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/script"
	"repro/internal/sim"
)

// Scalability sweep (`-experiment scale`). The compact capability tables
// (slab-backed cap.Store, open-addressed ddl.KeyMap, paged ddl.Generator)
// exist so one simulated machine can hold millions of capabilities across
// more than a thousand kernels; this experiment demonstrates exactly that.
// Each grid point builds a machine with core.Config.RelaxLimits (the
// architectural MaxKernels/MaxPEsPerKernel sizing lifted; the ddl.Key bit
// fields still bound it at ddl.MaxPEs PEs), mints capsPer+2 capabilities
// per VPE (the VPE self cap, one root mem cap, capsPer derives) plus one
// spanning obtain per non-root kernel, and then revokes the root's
// cross-machine tree — the revocation-latency column. The grid grows
// geometrically and the sweep runs its points sequentially, stopping when
// the heap guard trips, so it degrades to a partial table instead of
// thrashing the host.

// scalePoint is one cell of the grid: Kernels PE groups, VPEs user PEs
// (one VPE each), CapsPer derived capabilities per VPE.
type scalePoint struct {
	Kernels, VPEs, CapsPer int
}

// scaleGrid doubles kernels per step past the architectural MaxKernels
// (64) up to 1024 kernels; the top point mints over a million
// capabilities (2048 VPEs × 514 caps + 1023 spanning obtains).
var scaleGrid = []scalePoint{
	{64, 128, 64},
	{128, 256, 128},
	{256, 512, 256},
	{512, 1024, 512},
	{1024, 2048, 512},
}

// ScaleMinKernels is the smallest grid point's kernel count: a
// maxKernels cap below it would skip every point.
func ScaleMinKernels() int { return scaleGrid[0].Kernels }

// scaleHeapBudget stops the sweep when a completed point's runtime.Sys
// (OS-claimed memory, the closest in-process RSS proxy) exceeds it.
const scaleHeapBudget = 8 << 30

// scaleStats are one scale point's measurements: the allocation profile
// behind the report row. The heap numbers are host-side measurements
// (process-global, non-deterministic); everything simulated — caps
// created, revoke cycles — is deterministic as usual.
type scaleStats struct {
	CapsCreated uint64
	CapsDeleted uint64
	// HeapLiveBytes is the post-GC live heap growth between machine
	// construction and the fully built capability forest (measured just
	// before the timed revoke), i.e. bytes the machine+caps hold per run.
	HeapLiveBytes uint64
	// SysBytes is runtime.MemStats.Sys at the peak — the RSS proxy the
	// sweep's stop condition checks.
	SysBytes uint64
	// Mallocs is the heap-object allocation count from machine
	// construction to the built forest; divided by CapsCreated it is the
	// allocs-per-capability column.
	Mallocs      uint64
	RevokeCycles uint64
}

// scaleRun builds one point's machine and capability forest: every VPE
// allocates a root mem cap and derives capsPer children from it; the
// first VPE of every non-root kernel additionally obtains the root VPE's
// mem cap (the spanning edges), and the root VPE finally revokes its cap
// — a tree spanning all kernels — under the clock.
func scaleRun(eng *sim.Engine, kernels, vpes, capsPer int) (scaleStats, error) {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	sys, err := core.NewSystem(core.Config{
		Kernels:     kernels,
		UserPEs:     vpes,
		RelaxLimits: true,
		Engine:      eng,
	})
	if err != nil {
		return scaleStats{}, err
	}
	defer sys.Close()

	// This kind keeps its own driver instead of a script: the liveB/cap
	// column counts everything live at the forest's peak, and a script's op
	// lists and records would land in it (a scripted version measured 261.6
	// → 367.5 B/cap at 128 kernels, with identical simulated rows).
	byGroup := script.Groups(sys)
	rootPE := byGroup[0][0]
	byGroup[0] = byGroup[0][1:]

	ready := sim.NewFuture[cap.Selector](sys.Eng)
	var wg sim.WaitGroup
	wg.Add(vpes - 1)

	var peak runtime.MemStats
	var revTime sim.Duration
	mint := func(v *core.VPE, p *sim.Proc) cap.Selector {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			panic(err)
		}
		for j := 0; j < capsPer; j++ {
			if _, err := v.DeriveMem(p, sel, 0, 64, dtu.PermR); err != nil {
				panic(err)
			}
		}
		return sel
	}
	root, err := sys.SpawnOn(rootPE, "root", func(v *core.VPE, p *sim.Proc) {
		sel := mint(v, p)
		ready.Complete(sel)
		wg.Wait(p)
		// The forest is fully built: measure the live heap at its peak.
		// Host-side only — it reads no simulation state, so determinism
		// of the simulated metrics is untouched.
		runtime.GC()
		runtime.ReadMemStats(&peak)
		t0 := p.Now()
		if err := v.Revoke(p, sel); err != nil {
			panic(err)
		}
		revTime = p.Now() - t0
	})
	if err != nil {
		return scaleStats{}, err
	}
	for g := 0; g < kernels; g++ {
		for i, pe := range byGroup[g] {
			spanning := g != 0 && i == 0
			if _, err := sys.SpawnOn(pe, fmt.Sprintf("v%d.%d", g, i), func(v *core.VPE, p *sim.Proc) {
				mint(v, p)
				if spanning {
					sel := ready.Wait(p)
					if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
						panic(err)
					}
				}
				wg.Done()
			}); err != nil {
				return scaleStats{}, err
			}
		}
	}
	sys.Run()
	if err := audit(sys); err != nil {
		return scaleStats{}, err
	}

	st := sys.TotalStats()
	return scaleStats{
		CapsCreated:   st.CapsCreated,
		CapsDeleted:   st.CapsDeleted,
		HeapLiveBytes: peak.HeapAlloc - min(peak.HeapAlloc, base.HeapAlloc),
		SysBytes:      peak.Sys,
		Mallocs:       peak.Mallocs - base.Mallocs,
		RevokeCycles:  uint64(revTime),
	}, nil
}

// ScaleRow is one completed grid point.
type ScaleRow struct {
	Kernels, VPEs, CapsPer int
	Stats                  scaleStats
	WallclockNS            int64
}

// ScaleResult holds the sweep: the completed rows plus the points the
// kernel cap or the heap guard cut off (never silently — Print lists them).
type ScaleResult struct {
	MaxKernels int
	Rows       []ScaleRow
	Skipped    []string
}

// Scale runs the scalability sweep point by point — sequentially on
// purpose: the points are memory-bound, and the stop condition must see
// each result before committing to a bigger machine. maxKernels caps the
// grid (0 = the full grid). The heap guard (scaleHeapBudget) always applies.
func Scale(o Options, maxKernels int) ScaleResult {
	r := ScaleResult{MaxKernels: maxKernels}
	overHeap := false
	for _, pt := range scaleGrid {
		name := fmt.Sprintf("scale/%dk-%dv-%dc", pt.Kernels, pt.VPEs, pt.CapsPer)
		if maxKernels > 0 && pt.Kernels > maxKernels {
			r.Skipped = append(r.Skipped, name+" (over -scalekernels)")
			continue
		}
		if overHeap {
			r.Skipped = append(r.Skipped, name+" (heap budget spent)")
			continue
		}
		row := ScaleRow{Kernels: pt.Kernels, VPEs: pt.VPEs, CapsPer: pt.CapsPer}
		rs := o.execute([]Task{{
			Experiment: name,
			Config:     ExpConfig{Kernels: pt.Kernels, Instances: pt.VPEs},
			Run: func(eng *sim.Engine, res *Result) (err error) {
				row.Stats, err = scaleRun(eng, pt.Kernels, pt.VPEs, pt.CapsPer)
				res.Metrics = Metrics{Cycles: row.Stats.RevokeCycles, CapOps: row.Stats.CapsCreated}
				res.CapsMinted = row.Stats.CapsCreated
				return err
			},
		}})
		row.WallclockNS = rs[0].WallclockNS
		r.Rows = append(r.Rows, row)
		o.record(rs)
		overHeap = row.Stats.SysBytes > scaleHeapBudget
	}
	return r
}

// Print writes the scalability table.
func (r ScaleResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Scale sweep: compact capability tables, RelaxLimits machines")
	fmt.Fprintln(w, "kernels   vpes  caps/vpe  caps-created  liveB/cap  allocs/cap  peak-sys(MiB)  revoke(µs)   wall(s)")
	for _, row := range r.Rows {
		perCap := func(v uint64) float64 {
			if row.Stats.CapsCreated == 0 {
				return 0
			}
			return float64(v) / float64(row.Stats.CapsCreated)
		}
		fmt.Fprintf(w, "%7d  %5d  %8d  %12d  %9.1f  %10.2f  %13.1f  %10.2f  %8.2f\n",
			row.Kernels, row.VPEs, row.CapsPer,
			row.Stats.CapsCreated,
			perCap(row.Stats.HeapLiveBytes),
			perCap(row.Stats.Mallocs),
			float64(row.Stats.SysBytes)/(1<<20),
			float64(row.Stats.RevokeCycles)/core.CyclesPerMicrosecond,
			float64(row.WallclockNS)/float64(time.Second))
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(w, "skipped: %s\n", s)
	}
}
