package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/script"
	"repro/internal/sim"
)

// Churn scenario (`-experiment churn`). The crash-recovery protocol
// (core/rejoin.go) is exercised end-to-end by an open-loop revocation
// storm: sessions arrive on a fixed schedule and obtain slot capabilities
// from a root while the root expires slots by revoking them — revocations
// racing exchanges across every kernel link — and, mid-storm, a fault plan
// drops 1% of the traffic and crashes one kernel, which later recovers and
// rejoins as a new incarnation. The run must drain (no hangs), the
// completion fractions are exact functions of (seed, plan) — byte-identical
// at any -parallel — and afterwards core.System.Audit must find the machine
// quiescent, its tables sound and no capability or DDL state owned by the
// dead incarnation.

const (
	// churnSlots is the number of slot capabilities the root serves;
	// churnRevokes of them are expired mid-storm (the rest stay live so
	// post-recovery arrivals have something to obtain).
	churnSlots   = 16
	churnRevokes = 10
	// churnGap spaces the open-loop session arrivals; with 64 clients the
	// arrival schedule spans past the recovery, so the storm covers the
	// pre-crash, blackhole and post-rejoin regimes.
	churnGap sim.Duration = 8_000
	// churnRevokeAt/churnRevokeGap schedule the expiries: the revocation
	// storm starts before the crash and runs into the blackhole window, so
	// some revocations orphan state on the crashed kernel and must be
	// replayed at the rejoin.
	churnRevokeAt  sim.Time     = 60_000
	churnRevokeGap sim.Duration = 6_000
	// churnCrashAt/churnRecoverAt bound the blackhole window.
	churnCrashAt   sim.Time = 80_000
	churnRecoverAt sim.Time = 400_000
)

// churnScript is the storm on a fanoutSystem machine's pes: VPE 0 allocates
// churnSlots slot capabilities (the last alloc starts the makespan) and
// expires the first churnRevokes of them on a fixed timetable, racing the
// open-loop arrivals: client i sleeps until its arrival time and obtains slot
// i%churnSlots. Revocations into the blackhole window orphan the crashed
// kernel's copies; the rejoin replay must clean them up. VPE 0 ends by
// waiting for every client, so its last op ends the run.
func churnScript(pes []int) script.Script {
	n := len(pes) - 1
	root := make([]script.Op, churnSlots, churnSlots+2*churnRevokes+1)
	root[churnSlots-1].Latch = 1
	for j := 0; j < churnRevokes; j++ {
		at := churnRevokeAt + sim.Time(sim.Duration(j)*churnRevokeGap)
		root = append(root, script.Op{Kind: script.SleepUntil, At: at}, script.Op{Kind: script.Revoke, Ref: script.Ref{Op: j}})
	}
	root = append(root, script.Op{Kind: script.Wait, Latch: 2})
	sc := make(script.Script, n+1)
	sc[0] = script.VPE{PE: pes[0], Ops: root}
	clients := make([]script.Op, 3*n)
	for i := 0; i < n; i++ {
		ops := clients[3*i : 3*i+3 : 3*i+3]
		ops[0] = script.Op{Kind: script.Wait, Latch: 1}
		ops[1] = script.Op{Kind: script.SleepUntil, At: sim.Time(sim.Duration(i) * churnGap)}
		ops[2] = script.Op{Kind: script.Obtain, Ref: script.Ref{Op: i % churnSlots}, Latch: 2}
		sc[1+i] = script.VPE{PE: pes[1+i], Ops: ops}
	}
	return sc
}

// kindChurn runs one churn scenario. Config encodes the machine, Arg the
// drop rate in basis points, Seed the injector seed and Variant whether the
// last kernel crashes and recovers ("storm") or not ("nocrash").
const kindChurn = "churn"

func init() { registerKind(kindChurn, runChurnSpec) }

func runChurnSpec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	n, extra := spec.Config.Instances, spec.Config.Kernels-1
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	plan := faultsPlan(seed, spec.Arg)
	if spec.Variant == "storm" {
		plan.Kernels = append(plan.Kernels, churnCrash(extra))
	}
	// The fault sweep's machine: clients spread over the non-root kernels.
	// Failed operations are data, not errors — the degradation under the
	// crash is exactly what the scenario measures.
	sys, pes := fanoutSystem(eng, n, extra, 2, core.IKCBatching{Exchange: true, ServiceQuery: true}, plan)
	defer sys.Close()
	recs := script.Run(sys, churnScript(pes), nil)
	failedObtains, _ := script.Failures(recs[1:]...)
	failedRevokes, _ := script.Failures(recs[0][churnSlots:])
	// Post-storm audit: the crashed kernel recovered, so no kernel is
	// excused — every capability, child link and DDL entry must have a live,
	// consistent owner.
	if err := audit(sys); err != nil {
		return Metrics{}, nil, err
	}
	st := sys.TotalStats()
	attempted := n + churnRevokes
	m := Metrics{
		Cycles:    uint64(makespan(recs, script.Ref{Op: churnSlots - 1})),
		LostMsgs:  sys.Net.Stats().Lost,
		Retries:   st.Retransmits,
		DupDrops:  st.DupSuppressed,
		Completed: float64(attempted-failedObtains-failedRevokes) / float64(attempted),
	}
	return m, machineCounters{st, sys.FaultStats()}, nil
}

// churnCrash is the storm's kernel fault: the last kernel, never the root's,
// crashes mid-storm and recovers.
func churnCrash(extra int) fault.KernelFault {
	return fault.KernelFault{Kernel: extra, CrashAt: churnCrashAt, RecoverAt: churnRecoverAt}
}

// churnSpecs plans the scenario rows: a no-crash control at the storm's
// drop rate, then the crash+recover storm on a lossless and on a lossy
// fabric.
func churnSpecs(n, extra int, seed uint64) []TaskSpec {
	cfg := ExpConfig{Kernels: extra + 1, Instances: n}
	return []TaskSpec{
		{Experiment: "churn/nocrash-100bp", Kind: kindChurn, Variant: "nocrash",
			Arg: 100, Seed: seed, Config: cfg},
		{Experiment: "churn/storm-0bp", Kind: kindChurn, Variant: "storm",
			Arg: 0, Seed: seed, Config: cfg},
		{Experiment: "churn/storm-100bp", Kind: kindChurn, Variant: "storm",
			Arg: 100, Seed: seed, Config: cfg},
	}
}

// ChurnRow is one report row of the churn scenario: the cell's Metrics
// (Cycles is the storm's makespan) and the machine's counters. Their
// Obtains and Revokes are the storm's successful obtains and revokes: only
// the clients obtain, only the root revokes, and a kernel counts an obtain
// once the child is in place and a revocation once it found the capability,
// after which neither fails.
type ChurnRow struct {
	Scenario string
	DropBp   int
	Metrics
	Aux machineCounters
}

// ChurnResult holds the churn scenario sweep.
type ChurnResult struct {
	ExtraKernels int
	Clients      int
	Seed         uint64
	Rows         []ChurnRow
}

// Churn runs the revocation-storm churn scenario: n open-loop sessions over
// 1+extra kernels with scheduled expiries, a 1% lossy fabric and a
// crash+recover of the last kernel mid-storm. It returns an error — without
// running anything — if the machine is beyond the architectural limits.
func Churn(o Options, maxClients, extra int) (ChurnResult, error) {
	if maxClients <= 0 {
		maxClients = 64
	}
	if extra <= 0 {
		extra = 8
	}
	seed := o.FaultSeed
	if seed == 0 {
		seed = 1
	}
	// Pre-flight the exact machine the storm rows build, so a configuration
	// error surfaces here instead of as a task panic mid-sweep.
	plan := faultsPlan(seed, 100)
	plan.Kernels = append(plan.Kernels, churnCrash(extra))
	if err := fanoutConfig(maxClients, extra, 2, core.IKCBatching{}, plan).Validate(); err != nil {
		return ChurnResult{}, fmt.Errorf("churn: %w", err)
	}
	specs := churnSpecs(maxClients, extra, seed)
	rs := o.execute(specs)
	r := ChurnResult{ExtraKernels: extra, Clients: maxClients, Seed: seed}
	for i, spec := range specs {
		r.Rows = append(r.Rows, ChurnRow{
			Scenario: spec.Variant,
			DropBp:   spec.Arg,
			Metrics:  rs[i].Metrics,
			Aux:      auxOf[machineCounters](rs[i]),
		})
	}
	o.record(rs)
	return r, nil
}

// Print writes the churn table.
func (r ChurnResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Churn: open-loop revocation storm over 1+%d kernels, crash kernel %d, seed %d\n",
		r.ExtraKernels, r.ExtraKernels, r.Seed)
	fmt.Fprintln(w, "scenario  drop     makespan(µs)  obtains  revokes  completed  retries  lost  dead  rejoins  rejoin(µs)  stale")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s  %5.2f%%  %12.2f  %3d/%3d  %4d/%2d  %8.1f%%  %7d  %4d  %4d  %7d  %10.2f  %5d\n",
			row.Scenario,
			float64(row.DropBp)/100,
			float64(row.Cycles)/core.CyclesPerMicrosecond,
			row.Aux.Obtains, r.Clients,
			row.Aux.Revokes, churnRevokes,
			row.Completed*100,
			row.Retries, row.LostMsgs, row.Aux.DeadPeers,
			row.Aux.Rejoins,
			float64(meanCycles(row.Aux.RejoinCycles, row.Aux.Rejoins))/core.CyclesPerMicrosecond,
			row.Aux.StaleIncarnation)
	}
}
