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

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/m3"
	"repro/internal/sim"
)

// buildPair constructs a two-app system on eng. With spanning=true the apps
// land in different PE groups; otherwise both run under kernel 0.
func buildPair(eng *sim.Engine, spanning bool) (*core.System, int, int) {
	sys := core.MustNew(core.Config{Kernels: 2, UserPEs: 4, Engine: eng})
	// PEs 2,3 -> kernel 0; PEs 4,5 -> kernel 1.
	if spanning {
		return sys, 2, 4
	}
	return sys, 2, 3
}

// measureExchangeRevoke runs the paper's §5.2 microbenchmark on sys: app B
// obtains a capability from app A, then A revokes it. It returns the
// syscall latencies observed by the applications.
func measureExchangeRevoke(sys *core.System, peA, peB int) (exchange, revoke sim.Duration, err error) {
	defer sys.Close()
	ready := sim.NewFuture[cap.Selector](sys.Eng)
	obtained := sim.NewFuture[struct{}](sys.Eng)
	var vA *core.VPE
	vA, _ = sys.SpawnOn(peA, "A", func(v *core.VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			panic(err)
		}
		ready.Complete(sel)
		obtained.Wait(p)
		t0 := p.Now()
		if err := v.Revoke(p, sel); err != nil {
			panic(err)
		}
		revoke = p.Now() - t0
	})
	sys.SpawnOn(peB, "B", func(v *core.VPE, p *sim.Proc) {
		sel := ready.Wait(p)
		t0 := p.Now()
		if _, err := v.ObtainFrom(p, vA.ID, sel); err != nil {
			panic(err)
		}
		exchange = p.Now() - t0
		obtained.Complete(struct{}{})
	})
	sys.Run()
	return exchange, revoke, audit(sys)
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

func runTable3Spec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	var e, v sim.Duration
	var err error
	switch spec.Variant {
	case "local", "spanning":
		sys, a, b := buildPair(eng, spec.Variant == "spanning")
		e, v, err = measureExchangeRevoke(sys, a, b)
	case "m3":
		m3sys := m3.MustNew(m3.Config{UserPEs: 4, Engine: eng})
		e, v, err = measureExchangeRevoke(m3sys.System, 1, 2)
	default:
		err = fmt.Errorf("table3: unknown variant %q", spec.Variant)
	}
	return Metrics{Cycles: uint64(e)}, table3Aux{Revoke: uint64(v)}, err
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
	revs := make([]uint64, len(rs))
	for i := range rs {
		revs[i] = auxOf[table3Aux](rs[i]).Revoke
	}
	// Each task measured two operations; mirror the revoke latencies as
	// their own report entries.
	names := []string{"table3/revoke-local", "table3/revoke-spanning", "table3/revoke-m3"}
	for i, name := range names {
		rev := rs[i]
		rev.Experiment = name
		rev.Metrics.Cycles = revs[i]
		// The task's wallclock covers both measurements; charging it again
		// here would double-count it in the trajectory.
		rev.WallclockNS = 0
		rs = append(rs, rev)
	}
	o.record(rs)
	return Table3Result{
		ExchangeLocal:    sim.Duration(rs[0].Metrics.Cycles),
		RevokeLocal:      sim.Duration(revs[0]),
		ExchangeSpanning: sim.Duration(rs[1].Metrics.Cycles),
		RevokeSpanning:   sim.Duration(revs[1]),
		M3Exchange:       sim.Duration(rs[2].Metrics.Cycles),
		M3Revoke:         sim.Duration(revs[2]),
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

// buildChainAndRevoke creates a capability chain of the given length (the
// capability is exchanged from VPE to VPE) and measures revoking the root.
// With alternate=true consecutive VPEs live in different PE groups,
// creating the paper's ill-behaved cross-kernel ping-pong chain.
func buildChainAndRevoke(sys *core.System, pes []int, length int, alternate bool) (sim.Duration, error) {
	defer sys.Close()
	order := make([]int, length+1)
	if alternate {
		half := (len(pes) + 1) / 2
		for i := range order {
			if i%2 == 0 {
				order[i] = pes[i/2]
			} else {
				order[i] = pes[half+i/2]
			}
		}
	} else {
		copy(order, pes[:length+1])
	}
	futs := make([]*sim.Future[cap.Selector], length+1)
	for i := range futs {
		futs[i] = sim.NewFuture[cap.Selector](sys.Eng)
	}
	vpes := make([]*core.VPE, length+1)
	var revTime sim.Duration
	done := sim.NewFuture[struct{}](sys.Eng)
	var err0 error
	vpes[0], err0 = sys.SpawnOn(order[0], "chain0", func(v *core.VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			panic(err)
		}
		futs[0].Complete(sel)
		done.Wait(p)
		t0 := p.Now()
		if err := v.Revoke(p, sel); err != nil {
			panic(err)
		}
		revTime = p.Now() - t0
	})
	if err0 != nil {
		panic(err0)
	}
	for i := 1; i <= length; i++ {
		i := i
		var err error
		vpes[i], err = sys.SpawnOn(order[i], fmt.Sprintf("chain%d", i), func(v *core.VPE, p *sim.Proc) {
			prev := futs[i-1].Wait(p)
			sel, err := v.ObtainFrom(p, vpes[i-1].ID, prev)
			if err != nil {
				panic(err)
			}
			futs[i].Complete(sel)
			if i == length {
				done.Complete(struct{}{})
			}
		})
		if err != nil {
			panic(err)
		}
	}
	if length == 0 {
		sys.Eng.Schedule(0, func() {
			futs[0].OnComplete(func(cap.Selector) { done.Complete(struct{}{}) })
		})
	}
	sys.Run()
	return revTime, audit(sys)
}

// kindFig4 revokes one capability chain; Config.Instances is the chain
// length, Arg the figure's max length (which sizes the machine identically
// across all cells), Variant the machine (local, spanning, m3).
const kindFig4 = "fig4"

func init() { registerKind(kindFig4, runFig4Spec) }

func runFig4Spec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	l, maxLen := spec.Config.Instances, spec.Arg
	var c sim.Duration
	var err error
	switch spec.Variant {
	case "local", "spanning":
		sys := core.MustNew(core.Config{Kernels: 2, UserPEs: maxLen + 2, Engine: eng})
		c, err = buildChainAndRevoke(sys, sys.UserPEs(), l, spec.Variant == "spanning")
	case "m3":
		m3sys := m3.MustNew(m3.Config{UserPEs: maxLen + 2, Engine: eng})
		c, err = buildChainAndRevoke(m3sys.System, m3sys.UserPEs(), l, false)
	default:
		err = fmt.Errorf("fig4: unknown variant %q", spec.Variant)
	}
	return Metrics{Cycles: uint64(c)}, nil, err
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
	kernels := extra + 1
	perGroup := n + 1
	if extra > 0 {
		perGroup = (n+extra-1)/extra + 1
	}
	sys := core.MustNew(core.Config{
		Kernels:     kernels,
		UserPEs:     kernels * perGroup,
		IKCBatching: core.IKCBatching{Revoke: batching},
		Engine:      eng,
	})
	defer sys.Close()
	byGroup := make(map[int][]int)
	for _, pe := range sys.UserPEs() {
		g := sys.KernelOfPE(pe).ID()
		byGroup[g] = append(byGroup[g], pe)
	}
	rootPE := byGroup[0][0]
	byGroup[0] = byGroup[0][1:]

	ready := sim.NewFuture[cap.Selector](sys.Eng)
	var wg sim.WaitGroup
	wg.Add(n)
	var revTime sim.Duration
	var msgsBefore uint64
	root, err := sys.SpawnOn(rootPE, "root", func(v *core.VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			panic(err)
		}
		ready.Complete(sel)
		wg.Wait(p)
		msgsBefore = sys.TotalStats().IKCSent
		t0 := p.Now()
		if err := v.Revoke(p, sel); err != nil {
			panic(err)
		}
		revTime = p.Now() - t0
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		g := 0
		if extra > 0 {
			g = 1 + i%extra
		}
		pe := byGroup[g][0]
		byGroup[g] = byGroup[g][1:]
		if _, err := sys.SpawnOn(pe, fmt.Sprintf("kid%d", i), func(v *core.VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
				panic(err)
			}
			wg.Done()
		}); err != nil {
			panic(err)
		}
	}
	sys.Run()
	return revTime, sys.TotalStats().IKCSent - msgsBefore, audit(sys)
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
