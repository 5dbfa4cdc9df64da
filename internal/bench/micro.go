// Package bench regenerates every table and figure of the paper's
// evaluation (§5): the capability-operation microbenchmarks (Table 3),
// chain and tree revocation (Figures 4 and 5), the application workload
// characterization (Table 4), parallel efficiency (Figure 6), service and
// kernel dependence (Figures 7 and 8), system efficiency (Figure 9) and
// the Nginx server benchmark (Figure 10).
//
// Absolute cycle counts come from the calibrated cost model; the
// experiments reproduce the paper's relationships (who wins, by what
// factor, where crossovers fall) rather than gem5's exact numbers.
package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/m3"
	"repro/internal/script"
	"repro/internal/sim"
)

// rootOps and kidOps are a capability tree: VPE 0 allocates the root
// capability, every other VPE obtains it (the zero Ref), and once all hold
// it VPE 0 revokes it (op 2). Table 3 is the tree of one kid, Figure 5 and
// the revoke ablation are wider ones, and the exchange fan-out stops before
// the revoke.
var (
	rootOps = []script.Op{{Kind: script.Alloc, Latch: 1}, {Kind: script.Wait, Latch: 2}, {Kind: script.Revoke}}
	kidOps  = []script.Op{{Kind: script.Wait, Latch: 1}, {Kind: script.Obtain, Latch: 2}}
)

// fan is the script of a root VPE on pes[0] and one VPE on each of pes[1:],
// all running kid.
func fan(pes []int, root, kid []script.Op) script.Script {
	sc := make(script.Script, len(pes))
	sc[0] = script.VPE{PE: pes[0], Ops: root}
	for i, pe := range pes[1:] {
		sc[1+i] = script.VPE{PE: pe, Ops: kid}
	}
	return sc
}

// playLossless runs sc on sys until it drains. On a lossless fabric a failed
// op is the task's error, and so is an audit finding.
func playLossless(sys *core.System, sc script.Script, onStart func(vpe, op int)) ([][]script.Record, error) {
	recs := script.Run(sys, sc, onStart)
	if n, first := script.Failures(recs...); n != 0 {
		return nil, fmt.Errorf("%d operations failed on a lossless fabric, the first: %w", n, first)
	}
	return recs, audit(sys)
}

// Table3Result holds the runtimes of capability operations (paper Table 3).
type Table3Result struct {
	ExchangeLocal    sim.Duration
	ExchangeSpanning sim.Duration
	RevokeLocal      sim.Duration
	RevokeSpanning   sim.Duration
	M3Exchange       sim.Duration
	M3Revoke         sim.Duration
}

// microVariants are the machines of Table 3 and Figure 4: SemperOS's two
// kernels, with the VPEs in one PE group (local) or across both (spanning),
// and M3's one kernel.
var microVariants = []string{"local", "spanning", "m3"}

// microSystem builds the machine of a Table 3 or Figure 4 variant and
// microKernels is its kernel count, the report rows' Config.Kernels.
func microSystem(variant string, userPEs int, eng *sim.Engine) *core.System {
	if variant == "m3" {
		return m3.MustNew(m3.Config{UserPEs: userPEs, Engine: eng}).System
	}
	return core.MustNew(core.Config{Kernels: 2, UserPEs: userPEs, Engine: eng})
}

func microKernels(variant string) int {
	if variant == "m3" {
		return 1
	}
	return 2
}

// table3Run is the paper's §5.2 microbenchmark on a variant's machine: B
// obtains a capability from A (the exchange, B's op 1, the row's Cycles),
// then A revokes it (A's op 2, written to *revoke).
func table3Run(variant string, revoke *uint64) func(*sim.Engine, *Result) error {
	return func(eng *sim.Engine, res *Result) error {
		sys := microSystem(variant, 4, eng)
		defer sys.Close()
		pes := sys.UserPEs() // on two kernels: PEs 2,3 -> kernel 0; PEs 4,5 -> kernel 1
		if variant == "spanning" {
			pes = []int{pes[0], pes[2]}
		}
		recs, err := playLossless(sys, fan(pes[:2], rootOps, kidOps), nil)
		if err != nil {
			return err
		}
		res.Metrics.Cycles = uint64(recs[1][1].Took())
		*revoke = uint64(recs[0][2].Took())
		return nil
	}
}

// Table3 measures exchange and revocation in the group-local and
// group-spanning cases, for SemperOS and the M3 baseline. The three
// systems are independent simulations and run in parallel.
func Table3(o Options) Table3Result {
	tasks := make([]Task, len(microVariants))
	revokes := make([]uint64, len(microVariants))
	for i, v := range microVariants {
		tasks[i] = Task{Experiment: "table3/exchange-" + v, Config: ExpConfig{Kernels: microKernels(v), Instances: 2}, Run: table3Run(v, &revokes[i])}
	}
	rs := o.execute(tasks)
	// Each task measured two operations; mirror the revoke latencies as
	// their own report entries.
	for i, v := range microVariants {
		rev := rs[i]
		rev.Experiment = "table3/revoke-" + v
		rev.Metrics.Cycles = revokes[i]
		// The task's wallclock covers both measurements; charging it again
		// here would double-count it in the trajectory.
		rev.WallclockNS = 0
		rs = append(rs, rev)
	}
	o.record(rs)
	c := func(i int) sim.Duration { return sim.Duration(rs[i].Metrics.Cycles) }
	return Table3Result{
		ExchangeLocal: c(0), ExchangeSpanning: c(1), M3Exchange: c(2),
		RevokeLocal: c(3), RevokeSpanning: c(4), M3Revoke: c(5),
	}
}

// Print writes the table in the paper's layout.
func (r Table3Result) Print(w io.Writer) {
	pct := func(sos, base sim.Duration) string {
		if base == 0 {
			return "—"
		}
		return fmt.Sprintf("%+.1f%%", 100*(float64(sos)-float64(base))/float64(base))
	}
	fmt.Fprintln(w, "Table 3: Runtimes of capability operations (cycles)")
	fmt.Fprintln(w, "Operation  Scope     SemperOS   M3     Increase")
	fmt.Fprintf(w, "Exchange   Local     %6d   %6d   %s\n", r.ExchangeLocal, r.M3Exchange, pct(r.ExchangeLocal, r.M3Exchange))
	fmt.Fprintf(w, "Exchange   Spanning  %6d        —   —\n", r.ExchangeSpanning)
	fmt.Fprintf(w, "Revoke     Local     %6d   %6d   %s\n", r.RevokeLocal, r.M3Revoke, pct(r.RevokeLocal, r.M3Revoke))
	fmt.Fprintf(w, "Revoke     Spanning  %6d        —   —\n", r.RevokeSpanning)
}

// --- Figure 4: chain revocation -------------------------------------------

// ChainPoint is one point of Figure 4.
type ChainPoint struct {
	Length int
	Cycles sim.Duration
}

// Fig4Result holds the three series of Figure 4.
type Fig4Result struct {
	Lengths       []int
	LocalSemperOS []ChainPoint
	SpanningChain []ChainPoint
	LocalM3       []ChainPoint
}

// chain hands a capability down the VPEs on pes, each obtaining it from the
// one before, then revokes the root (VPE 0's op 2). Latch i opens when VPE
// i-1 holds its link. With alternate=true consecutive VPEs live in different
// PE groups, creating the paper's ill-behaved cross-kernel ping-pong chain.
func chain(pes []int, length int, alternate bool) script.Script {
	sc := make(script.Script, length+1)
	sc[0] = script.VPE{PE: pes[0], Ops: []script.Op{{Kind: script.Alloc, Latch: 1}, {Kind: script.Wait, Latch: length + 1}, {Kind: script.Revoke}}}
	half := (len(pes) + 1) / 2
	for i := 1; i <= length; i++ {
		pe := pes[i]
		if alternate {
			pe = pes[i/2+i%2*half]
		}
		prev := script.Ref{VPE: i - 1, Op: min(i-1, 1)} // the alloc, or the obtain
		sc[i] = script.VPE{PE: pe, Ops: []script.Op{{Kind: script.Wait, Latch: i}, {Kind: script.Obtain, Ref: prev, Latch: i + 1}}}
	}
	return sc
}

// fig4Task revokes one capability chain of the given length on a variant's
// machine, sized for the figure's maxLen so every cell of a variant runs on
// the same machine.
func fig4Task(variant string, length, maxLen int) Task {
	return Task{
		Experiment: "fig4/" + variant,
		Config:     ExpConfig{Kernels: microKernels(variant), Instances: length},
		Run: func(eng *sim.Engine, res *Result) error {
			sys := microSystem(variant, maxLen+2, eng)
			defer sys.Close()
			recs, err := playLossless(sys, chain(sys.UserPEs(), length, variant == "spanning"), nil)
			if err != nil {
				return err
			}
			res.Metrics.Cycles = uint64(recs[0][2].Took())
			return nil
		},
	}
}

// Fig4 measures chain revocation for chain lengths 0..maxLen (step 10).
// Every (length, variant) cell builds its own system inside its task, so
// the whole figure is one planned batch.
func Fig4(o Options, maxLen int) Fig4Result {
	if maxLen <= 0 {
		maxLen = 100
	}
	r := Fig4Result{}
	var tasks []Task
	for l := 0; l <= maxLen; l += 10 {
		r.Lengths = append(r.Lengths, l)
		for _, v := range microVariants {
			tasks = append(tasks, fig4Task(v, l, maxLen))
		}
	}
	rs := o.execute(tasks)
	for i, l := range r.Lengths {
		r.LocalSemperOS = append(r.LocalSemperOS, ChainPoint{l, sim.Duration(rs[3*i].Metrics.Cycles)})
		r.SpanningChain = append(r.SpanningChain, ChainPoint{l, sim.Duration(rs[3*i+1].Metrics.Cycles)})
		r.LocalM3 = append(r.LocalM3, ChainPoint{l, sim.Duration(rs[3*i+2].Metrics.Cycles)})
	}
	o.record(rs)
	return r
}

// Print writes the three series (cycles, like the paper's K-cycle axis).
func (r Fig4Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: Revoking capability chains of varying sizes (cycles)")
	fmt.Fprintln(w, "len   local(SemperOS)   spanning(SemperOS)   local(M3)")
	for i, l := range r.Lengths {
		fmt.Fprintf(w, "%3d   %15d   %18d   %9d\n",
			l, r.LocalSemperOS[i].Cycles, r.SpanningChain[i].Cycles, r.LocalM3[i].Cycles)
	}
}

// --- Figure 5: tree revocation --------------------------------------------

// TreeSeries is one line of Figure 5: child capabilities spread over
// 1+Extra kernels.
type TreeSeries struct {
	ExtraKernels int
	Points       []ChainPoint // Length is the child count here
}

// Fig5Result holds all series of Figure 5.
type Fig5Result struct {
	Counts []int
	Series []TreeSeries
}

// treeRevoke hands the root capability to n other VPEs (spread round-robin
// over extra kernels if extra > 0, local otherwise; the row's Config is
// Kernels = 1+extra, Instances = n) and measures revoking the whole tree:
// the row's Cycles and, when msgs is non-nil, the inter-kernel request
// messages it took. batching selects the paper's §5.2 revoke batching (the
// ablation's variant; Figure 5 runs without).
func treeRevoke(experiment string, n, extra int, batching bool, msgs *uint64) Task {
	return Task{
		Experiment: experiment,
		Config:     ExpConfig{Kernels: 1 + extra, Instances: n},
		Run: func(eng *sim.Engine, res *Result) error {
			sys, pes := fanoutSystem(eng, n, extra, 1, core.IKCBatching{Revoke: batching}, nil)
			defer sys.Close()
			var msgsBefore uint64
			recs, err := playLossless(sys, fan(pes, rootOps, kidOps), func(vpe, op int) {
				if vpe == 0 && op == 2 {
					msgsBefore = sys.TotalStats().IKCSent
				}
			})
			if err != nil {
				return err
			}
			res.Metrics.Cycles = uint64(recs[0][2].Took())
			if msgs != nil {
				*msgs = sys.TotalStats().IKCSent - msgsBefore
			}
			return nil
		},
	}
}

// Fig5 measures tree revocation for child counts 0..maxKids (step 16) and
// kernel spreads 1+{0,1,4,8,12}, all cells in one planned batch.
func Fig5(o Options, maxKids int) Fig5Result {
	if maxKids <= 0 {
		maxKids = 128
	}
	r := Fig5Result{}
	for n := 0; n <= maxKids; n += 16 {
		r.Counts = append(r.Counts, n)
	}
	extras := []int{0, 1, 4, 8, 12}
	var tasks []Task
	for _, extra := range extras {
		for _, n := range r.Counts {
			tasks = append(tasks, treeRevoke("fig5", n, extra, false, nil))
		}
	}
	rs := o.execute(tasks)
	for ei, extra := range extras {
		s := TreeSeries{ExtraKernels: extra}
		for ni, n := range r.Counts {
			s.Points = append(s.Points, ChainPoint{n, sim.Duration(rs[ei*len(r.Counts)+ni].Metrics.Cycles)})
		}
		r.Series = append(r.Series, s)
	}
	o.record(rs)
	return r
}

// Print writes the series in µs, like the paper's Figure 5 axis.
func (r Fig5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: Parallel revocation of capability trees (µs)")
	fmt.Fprint(w, "caps ")
	for _, s := range r.Series {
		fmt.Fprintf(w, "  1+%-2d kernels", s.ExtraKernels)
	}
	fmt.Fprintln(w)
	for i, n := range r.Counts {
		fmt.Fprintf(w, "%4d ", n)
		for _, s := range r.Series {
			us := float64(s.Points[i].Cycles) / core.CyclesPerMicrosecond
			fmt.Fprintf(w, "  %12.2f", us)
		}
		fmt.Fprintln(w)
	}
}
