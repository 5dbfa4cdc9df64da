package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/script"
	"repro/internal/sim"
)

// Fault-injection ablation (`-experiment faults`). The reliability layer
// (core/reliability.go) exists so the capability protocols survive a lossy
// fabric; this experiment measures *how well*: the spanning fan-out
// workloads of the transport ablation run under seeded fault plans
// (internal/fault) sweeping drop rates, plus a kernel-crash scenario, and
// report completion rate, retransmissions, duplicate suppressions and
// recovery latency. Everything is deterministic in (seed, plan): reruns at
// any -parallel produce byte-identical rows.

// faultsRates is the drop-rate axis in basis points (0.00%, 0.25%, 1%,
// 4%). The zero row runs reliable mode on a lossless fabric: losses are
// zero and completion 100%, so it isolates the cost of the reliability
// machinery itself — including the spurious RTO retransmits a fixed
// timeout fires under fan-out queueing delay, which the receiver-side
// dedup absorbs (that is the Retries floor the faulty rows build on).
var faultsRates = []int{0, 25, 100, 400}

// faultsCrashAt is the crash time of the crash scenario, chosen to land
// mid-fan-out (after the victims connected, before the fan-out drains).
const faultsCrashAt sim.Time = 100_000

// faultsRecoverAt ends the blackhole window of the crash+recover scenario:
// late enough that the victims' death verdicts and retransmission ladders
// are well underway, early enough that the rejoin resolves the run long
// before the permanent-crash row's full RTO ladder would.
const faultsRecoverAt sim.Time = 400_000

// faultsPlan builds the sweep's plan for one drop rate: duplication at
// half the drop rate and a fixed small delivery jitter ride along, so one
// knob exercises all three probabilistic fault types.
func faultsPlan(seed uint64, dropBp int) *fault.Plan {
	return &fault.Plan{
		Seed:   seed,
		Drop:   float64(dropBp) / 10_000,
		Dup:    float64(dropBp) / 20_000,
		Jitter: 200,
	}
}

// machineCounters is the side data of a faults or churn run: the machine's
// summed kernel counters and the injector's, behind the row's Metrics.
type machineCounters struct {
	core.KernelStats
	fault.Stats
}

// meanCycles is sum/n, or 0 when n is 0.
func meanCycles(sum sim.Duration, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return uint64(sum) / n
}

func (a machineCounters) capsMinted() uint64 { return a.CapsCreated }

// kindFaults runs one cell of the fault sweep. Config encodes the machine
// (Kernels = 1+extra, Instances = clients), Variant the workload
// (exchange, svcquery, crash), Arg the drop rate in basis points and Seed
// the injector seed.
const kindFaults = "faults"

func init() { registerKind(kindFaults, runFaultsSpec) }

func runFaultsSpec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	n, extra := spec.Config.Instances, spec.Config.Kernels-1
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	plan := faultsPlan(seed, spec.Arg)
	gen := fanoutExchange
	// A permanent crash leaves state only the dead kernel could clean up;
	// every other scenario — recovery included — must leak nothing.
	var deadKernels []int
	switch spec.Variant {
	case "exchange":
	case "crash":
		// The crash scenario: the last client kernel dies mid-fan-out. Its
		// clients' pending operations must resolve to errors (the victims
		// declare the owner dead from their side too — its replies vanish),
		// while everyone else completes.
		plan.Kernels = append(plan.Kernels, fault.KernelFault{Kernel: extra, CrashAt: faultsCrashAt})
		deadKernels = append(deadKernels, extra)
	case "crashrecover":
		// The crash+recover scenario: the same kernel crashes but rejoins
		// mid-storm as a new incarnation. Operations in flight across the
		// window abort (the old incarnation's requests cannot be completed),
		// but the run resolves at the rejoin instead of grinding through the
		// full RTO ladder, and no capability state may leak.
		plan.Kernels = append(plan.Kernels, fault.KernelFault{
			Kernel: extra, CrashAt: faultsCrashAt, RecoverAt: faultsRecoverAt,
		})
	case "svcquery":
		gen = fanoutSvcQuery
	default:
		return Metrics{}, nil, fmt.Errorf("faults: unknown variant %q", spec.Variant)
	}
	// Both IKC batching families on, so envelopes and their retransmission
	// path are exercised. A failed operation (e.g. ErrPeerDead after the owner
	// kernel is declared dead) is data — the run completes either way, which
	// is exactly the degradation contract under test.
	sys, pes := fanoutSystem(eng, n, extra, 2, core.IKCBatching{Exchange: true, ServiceQuery: true}, plan)
	defer sys.Close()
	sc, from := gen(pes)
	recs := script.Run(sys, sc, nil)
	failed, _ := script.Failures(recs[1:]...)
	if err := audit(sys, deadKernels...); err != nil {
		return Metrics{}, nil, err
	}
	st := sys.TotalStats()
	m := Metrics{
		Cycles:    uint64(makespan(recs, from)),
		LostMsgs:  sys.Net.Stats().Lost,
		Retries:   st.Retransmits,
		DupDrops:  st.DupSuppressed,
		Completed: float64(n-failed) / float64(n),
	}
	return m, machineCounters{st, sys.FaultStats()}, nil
}

// faultsOps is the workload axis of the sweep. The crash and crash+recover
// scenarios run at one fixed drop rate: their point is the dead-kernel
// degradation and the rejoin resolution, not the rate sweep.
var faultsOps = []string{"exchange", "svcquery"}

// faultsSpecs plans the (workload × drop rate) grid plus the crash cell.
func faultsSpecs(n, extra int, seed uint64) []TaskSpec {
	var specs []TaskSpec
	for _, op := range faultsOps {
		for _, bp := range faultsRates {
			specs = append(specs, TaskSpec{
				Experiment: fmt.Sprintf("faults/%s-%dbp", op, bp),
				Kind:       kindFaults,
				Variant:    op,
				Arg:        bp,
				Seed:       seed,
				Config:     ExpConfig{Kernels: extra + 1, Instances: n},
			})
		}
	}
	for _, crash := range []string{"crash", "crashrecover"} {
		specs = append(specs, TaskSpec{
			Experiment: "faults/" + crash + "-100bp",
			Kind:       kindFaults,
			Variant:    crash,
			Arg:        100,
			Seed:       seed,
			Config:     ExpConfig{Kernels: extra + 1, Instances: n},
		})
	}
	return specs
}

// FaultsRow is one report row of the sweep: the cell's Metrics (Cycles is
// the fan-out's makespan) and the machine's counters.
type FaultsRow struct {
	Workload string
	DropBp   int
	Clients  int
	Metrics
	Aux machineCounters
}

// FaultsResult holds the fault sweep.
type FaultsResult struct {
	ExtraKernels int
	Seed         uint64
	Rows         []FaultsRow
}

// Faults runs the fault-injection sweep: the fan-out workloads under
// rising drop rates plus the kernel-crash scenario, n clients over
// 1+extra kernels, all cells as one planned batch.
func Faults(o Options, maxClients, extra int) FaultsResult {
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
	specs := faultsSpecs(maxClients, extra, seed)
	rs := o.execute(specs)
	r := FaultsResult{ExtraKernels: extra, Seed: seed}
	for i, spec := range specs {
		r.Rows = append(r.Rows, FaultsRow{
			Workload: spec.Variant,
			DropBp:   spec.Arg,
			Clients:  spec.Config.Instances,
			Metrics:  rs[i].Metrics,
			Aux:      auxOf[machineCounters](rs[i]),
		})
	}
	o.record(rs)
	return r
}

// Print writes the fault-sweep table.
func (r FaultsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Fault injection: fan-out over 1+%d kernels, seed %d\n", r.ExtraKernels, r.Seed)
	fmt.Fprintln(w, "workload      drop     makespan(µs)  completed  retries  dupdrops  lost  dead  recovery(µs)  rejoins  rejoin(µs)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-12s  %5.2f%%  %12.2f  %8.1f%%  %7d  %8d  %4d  %4d  %12.2f  %7d  %10.2f\n",
			row.Workload,
			float64(row.DropBp)/100,
			float64(row.Cycles)/core.CyclesPerMicrosecond,
			row.Completed*100,
			row.Retries, row.DupDrops, row.LostMsgs, row.Aux.DeadPeers,
			float64(meanCycles(row.Aux.RecoveryCycles, row.Aux.Recovered))/core.CyclesPerMicrosecond,
			row.Aux.Rejoins,
			float64(meanCycles(row.Aux.RejoinCycles, row.Aux.Rejoins))/core.CyclesPerMicrosecond)
	}
}
