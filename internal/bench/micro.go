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

// kindTable3 runs one §5.2 exchange+revoke microbenchmark; the Variant
// selects the machine (local, spanning, m3).
const kindTable3 = "table3"

// table3Aux carries the second measurement of the run: each task measures
// both the exchange (Metrics.Cycles) and the revocation.
type table3Aux struct {
	Revoke uint64
}

func init() { registerKind(kindTable3, runTable3Spec) }

// microSystem builds the machine of a Table 3 or Figure 4 variant: local
// and spanning run on two kernels, m3 on M3's one.
func microSystem(variant string, userPEs int, eng *sim.Engine) (*core.System, error) {
	switch variant {
	case "local", "spanning":
		return core.MustNew(core.Config{Kernels: 2, UserPEs: userPEs, Engine: eng}), nil
	case "m3":
		return m3.MustNew(m3.Config{UserPEs: userPEs, Engine: eng}).System, nil
	}
	return nil, fmt.Errorf("unknown variant %q", variant)
}

// runTable3Spec is the paper's §5.2 microbenchmark: B obtains a capability
// from A (the exchange, B's op 1), then A revokes it (A's op 2).
func runTable3Spec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	sys, err := microSystem(spec.Variant, 4, eng)
	if err != nil {
		return Metrics{}, nil, fmt.Errorf("table3: %w", err)
	}
	defer sys.Close()
	pes := sys.UserPEs() // on two kernels: PEs 2,3 -> kernel 0; PEs 4,5 -> kernel 1
	if spec.Variant == "spanning" {
		pes = []int{pes[0], pes[2]}
	}
	recs, err := playLossless(sys, fan(pes[:2], rootOps, kidOps), nil)
	if err != nil {
		return Metrics{}, nil, err
	}
	return Metrics{Cycles: uint64(recs[1][1].Took())}, table3Aux{Revoke: uint64(recs[0][2].Took())}, nil
}

// table3Specs plans the three microbenchmark machines.
func table3Specs() []TaskSpec {
	return []TaskSpec{
		{Experiment: "table3/exchange-local", Kind: kindTable3, Variant: "local", Config: ExpConfig{Kernels: 2, Instances: 2}},
		{Experiment: "table3/exchange-spanning", Kind: kindTable3, Variant: "spanning", Config: ExpConfig{Kernels: 2, Instances: 2}},
		{Experiment: "table3/exchange-m3", Kind: kindTable3, Variant: "m3", Config: ExpConfig{Kernels: 1, Instances: 2}},
	}
}

// Table3 measures exchange and revocation in the group-local and
// group-spanning cases, for SemperOS and the M3 baseline. The three
// systems are independent simulations and run in parallel.
func Table3(o Options) Table3Result {
	rs := o.execute(table3Specs())
	// Each task measured two operations; mirror the revoke latencies as
	// their own report entries.
	for i, name := range []string{"table3/revoke-local", "table3/revoke-spanning", "table3/revoke-m3"} {
		rev := rs[i]
		rev.Experiment = name
		rev.Metrics.Cycles = auxOf[table3Aux](rs[i]).Revoke
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

// kindFig4 revokes one capability chain; Config.Instances is the chain
// length, Arg the figure's max length (which sizes the machine identically
// across all cells), Variant the machine (local, spanning, m3).
const kindFig4 = "fig4"

func init() { registerKind(kindFig4, runFig4Spec) }

func runFig4Spec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	sys, err := microSystem(spec.Variant, spec.Arg+2, eng)
	if err != nil {
		return Metrics{}, nil, fmt.Errorf("fig4: %w", err)
	}
	defer sys.Close()
	recs, err := playLossless(sys, chain(sys.UserPEs(), spec.Config.Instances, spec.Variant == "spanning"), nil)
	if err != nil {
		return Metrics{}, nil, err
	}
	return Metrics{Cycles: uint64(recs[0][2].Took())}, nil, nil
}

// fig4Specs plans the (length, variant) grid.
func fig4Specs(maxLen int) ([]TaskSpec, []int) {
	var lengths []int
	for l := 0; l <= maxLen; l += 10 {
		lengths = append(lengths, l)
	}
	specs := make([]TaskSpec, 0, 3*len(lengths))
	for _, l := range lengths {
		specs = append(specs,
			TaskSpec{Experiment: "fig4/local", Kind: kindFig4, Variant: "local", Config: ExpConfig{Kernels: 2, Instances: l}, Arg: maxLen},
			TaskSpec{Experiment: "fig4/spanning", Kind: kindFig4, Variant: "spanning", Config: ExpConfig{Kernels: 2, Instances: l}, Arg: maxLen},
			TaskSpec{Experiment: "fig4/m3", Kind: kindFig4, Variant: "m3", Config: ExpConfig{Kernels: 1, Instances: l}, Arg: maxLen})
	}
	return specs, lengths
}

// Fig4 measures chain revocation for chain lengths 0..maxLen (step 10).
// Every (length, variant) cell builds its own system inside its task, so
// the whole figure is one planned batch.
func Fig4(o Options, maxLen int) Fig4Result {
	if maxLen <= 0 {
		maxLen = 100
	}
	specs, lengths := fig4Specs(maxLen)
	rs := o.execute(specs)
	r := Fig4Result{Lengths: lengths}
	for i, l := range lengths {
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
// over extra kernels if extra > 0, local otherwise) and measures revoking the
// whole tree: the duration and the inter-kernel request messages it took.
// batching selects the paper's §5.2 revoke batching (the ablation's variant;
// Figure 5 runs without).
func treeRevoke(eng *sim.Engine, n, extra int, batching bool) (sim.Duration, uint64, error) {
	sys, pes := fanoutSystem(eng, n, extra, 1, core.IKCBatching{Revoke: batching}, nil)
	defer sys.Close()
	var msgsBefore uint64
	recs, err := playLossless(sys, fan(pes, rootOps, kidOps), func(vpe, op int) {
		if vpe == 0 && op == 2 {
			msgsBefore = sys.TotalStats().IKCSent
		}
	})
	if err != nil {
		return 0, 0, err
	}
	return recs[0][2].Took(), sys.TotalStats().IKCSent - msgsBefore, nil
}

// kindFig5 revokes one capability tree; Config encodes the cell
// (Kernels = 1+extra, Instances = child count).
const kindFig5 = "fig5"

func init() { registerKind(kindFig5, runFig5Spec) }

func runFig5Spec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	n, extra := spec.Config.Instances, spec.Config.Kernels-1
	c, _, err := treeRevoke(eng, n, extra, false)
	return Metrics{Cycles: uint64(c)}, nil, err
}

// fig5Specs plans the (spread, child-count) grid.
func fig5Specs(counts, extras []int) []TaskSpec {
	specs := make([]TaskSpec, 0, len(extras)*len(counts))
	for _, extra := range extras {
		for _, n := range counts {
			specs = append(specs, TaskSpec{
				Experiment: "fig5",
				Kind:       kindFig5,
				Config:     ExpConfig{Kernels: 1 + extra, Instances: n},
			})
		}
	}
	return specs
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
	rs := o.execute(fig5Specs(r.Counts, extras))
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
