package bench

import (
	"fmt"
	"io"

	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Ablation: revoke message batching. The paper's §5.2 closes its tree
// revocation discussion with "we believe that this can be further improved
// by the use of message batching. So far, the kernel managing the root
// capability sends out one message for each child capability." This
// experiment implements that proposal (core.IKCBatching.Revoke) and
// measures its effect on Figure 5's workload.

// AblationRow compares plain and batched tree revocation at one breadth.
type AblationRow struct {
	Children      int
	PlainCycles   sim.Duration
	BatchedCycles sim.Duration
	PlainMsgs     uint64
	BatchedMsgs   uint64
}

// AblationResult is the batching ablation over tree breadths.
type AblationResult struct {
	ExtraKernels int
	Rows         []AblationRow
}

// kindAblationRevoke runs one tree-revocation cell of the batching
// ablation; Config encodes it (Kernels = 1+extra, Instances = children),
// Variant picks plain or batched.
const kindAblationRevoke = "ablation-revoke"

// ablationAux carries the run's inter-kernel message count for the
// post-process table (kept out of Metrics so the report layout is
// unchanged).
type ablationAux struct {
	Msgs uint64
}

func init() { registerKind(kindAblationRevoke, runAblationRevokeSpec) }

func runAblationRevokeSpec(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
	n, extra := spec.Config.Instances, spec.Config.Kernels-1
	c, m, err := treeRevoke(eng, n, extra, spec.Variant == "batched")
	return Metrics{Cycles: uint64(c)}, ablationAux{Msgs: m}, err
}

// ablationSpecs plans the (breadth, variant) grid.
func ablationSpecs(breadths []int, extra int) []TaskSpec {
	specs := make([]TaskSpec, 0, 2*len(breadths))
	for _, n := range breadths {
		for _, variant := range []string{"plain", "batched"} {
			specs = append(specs, TaskSpec{
				Experiment: "ablation/" + variant,
				Kind:       kindAblationRevoke,
				Variant:    variant,
				Config:     ExpConfig{Kernels: extra + 1, Instances: n},
			})
		}
	}
	return specs
}

// AblationBatching measures tree revocation with and without message
// batching, spreading the children over 1+extra kernels. Every (breadth,
// variant) cell is an independent simulation in one planned batch.
func AblationBatching(o Options, maxKids, extra int) AblationResult {
	if maxKids <= 0 {
		maxKids = 128
	}
	if extra <= 0 {
		extra = 12
	}
	var breadths []int
	for n := 16; n <= maxKids; n += 16 {
		breadths = append(breadths, n)
	}
	rs := o.execute(ablationSpecs(breadths, extra))
	r := AblationResult{ExtraKernels: extra}
	for i, n := range breadths {
		r.Rows = append(r.Rows, AblationRow{
			Children:      n,
			PlainCycles:   sim.Duration(rs[2*i].Metrics.Cycles),
			BatchedCycles: sim.Duration(rs[2*i+1].Metrics.Cycles),
			PlainMsgs:     auxOf[ablationAux](rs[2*i]).Msgs,
			BatchedMsgs:   auxOf[ablationAux](rs[2*i+1]).Msgs,
		})
	}
	o.record(rs)
	return r
}

// --- IKC transport ablation (exchange + service-query batching) ----------
//
// The unified transport (core/transport.go) extends the paper's batching
// proposal beyond revocation to the other two IKC-heavy operations:
// capability exchange (§4.3.2) and service queries (§4.3.3), and since the
// transport went symmetric it batches both directions: requests into
// per-(destination, kind) envelopes and replies into per-(destination,
// class) envelopes. These experiments measure both on spanning fan-outs: N
// clients spread over `extra` kernels all obtaining from one owner
// (exchange), or all opening a session plus performing one session-scoped
// obtain against one service (svcquery). Reported are the fan-out makespan
// and the inter-kernel wire messages split by direction (a coalesced
// envelope counts once), so the reply-direction saving is visible on its
// own.

// IKCRow compares plain and batched transport at one fan-out breadth.
// PlainMsgs/BatchedMsgs are request+reply totals; the *ReqMsgs/*RepMsgs
// fields split them by direction.
type IKCRow struct {
	Clients        int
	PlainCycles    sim.Duration
	BatchedCycles  sim.Duration
	PlainMsgs      uint64
	BatchedMsgs    uint64
	PlainReqMsgs   uint64
	BatchedReqMsgs uint64
	PlainRepMsgs   uint64
	BatchedRepMsgs uint64
}

// AblationIKCResult holds the transport ablation over fan-out breadths.
type AblationIKCResult struct {
	ExtraKernels int
	Exchange     []IKCRow
	SvcQuery     []IKCRow
}

// ikcMetrics is the report row of one fan-out run: its makespan and the
// inter-kernel wire messages of the whole run, summed by direction.
func ikcMetrics(sys *core.System, makespan sim.Duration) Metrics {
	st := sys.TotalStats()
	return Metrics{Cycles: uint64(makespan), ReqMsgs: st.IKCSent, RepMsgs: st.IKCRepSent}
}

// fanoutSystem builds the fan-out machine of the transport ablation, the
// fault sweep and the churn storm: the owner/service group plus `extra`
// client groups, n clients spread round-robin over them. pes[0] hosts the
// owner or service, pes[1:] the clients.
func fanoutSystem(eng *sim.Engine, n, extra int, pol core.IKCBatching, plan *fault.Plan) (*core.System, []int) {
	kernels := extra + 1
	perGroup := n + 2
	if extra > 0 {
		perGroup = (n+extra-1)/extra + 2
	}
	sys := core.MustNew(core.Config{
		Kernels:     kernels,
		UserPEs:     kernels * perGroup,
		IKCBatching: pol,
		Faults:      plan,
		Engine:      eng,
	})
	byGroup := make(map[int][]int)
	for _, pe := range sys.UserPEs() {
		g := sys.KernelOfPE(pe).ID()
		byGroup[g] = append(byGroup[g], pe)
	}
	clientPEs := make([]int, 0, n)
	for i := 0; i < n; i++ {
		g := 0
		if extra > 0 {
			g = 1 + i%extra
		}
		clientPEs = append(clientPEs, byGroup[g][1+i/max(extra, 1)])
	}
	return sys, append([]int{byGroup[0][0]}, clientPEs...)
}

// fanoutDriver runs one fan-out on a fanoutSystem machine until it drains and
// reports the makespan and how many clients' operations failed. A failed
// operation is data: under a fault plan it is the degradation being
// measured (faults.go), on the lossless fabric the caller turns it into the
// task's error.
type fanoutDriver func(sys *core.System, pes []int) (makespan sim.Duration, failed int)

// fanoutExchange is n spanning obtains of one root capability.
func fanoutExchange(sys *core.System, pes []int) (sim.Duration, int) {
	n := len(pes) - 1
	ready := sim.NewFuture[cap.Selector](sys.Eng)
	var t0, end sim.Time
	var failed int
	var wg sim.WaitGroup
	wg.Add(n)
	root, err := sys.SpawnOn(pes[0], "root", func(v *core.VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			panic(err) // local to the owner kernel; never faulted
		}
		t0 = p.Now()
		ready.Complete(sel)
		wg.Wait(p)
		end = p.Now()
	})
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sys.SpawnOn(pes[1+i], fmt.Sprintf("c%d", i), func(v *core.VPE, p *sim.Proc) {
			sel := ready.Wait(p)
			if _, err := v.ObtainFrom(p, root.ID, sel); err != nil {
				failed++
			}
			wg.Done()
		}); err != nil {
			panic(err)
		}
	}
	sys.Run()
	return end - t0, failed
}

// fanoutSvcQuery is n clients each opening a session to one service and
// performing one session-scoped obtain; failure at either step fails the
// client's operation. The makespan ends when the last client is done.
func fanoutSvcQuery(sys *core.System, pes []int) (sim.Duration, int) {
	n := len(pes) - 1
	svcReady := sim.NewFuture[struct{}](sys.Eng)
	var t0, end sim.Time
	var failed int
	var idents uint64
	if _, err := sys.SpawnOn(pes[0], "svc", func(v *core.VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			panic(err)
		}
		err = v.RegisterService(p, "fan", core.ServiceHandlers{
			Open: func(p *sim.Proc, clientVPE int, args any) core.SvcResult {
				idents++
				return core.SvcResult{Ident: idents}
			},
			Obtain: func(p *sim.Proc, ident uint64, args any) core.SvcResult {
				return core.SvcResult{SrcSel: sel}
			},
		})
		if err != nil {
			panic(err)
		}
		t0 = p.Now()
		svcReady.Complete(struct{}{})
		v.ServeLoop(p)
	}); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		if _, err := sys.SpawnOn(pes[1+i], fmt.Sprintf("c%d", i), func(v *core.VPE, p *sim.Proc) {
			svcReady.Wait(p)
			sess, err := v.CreateSession(p, "fan", nil)
			if err == nil {
				_, _, err = sess.Obtain(p, nil)
			}
			if err != nil {
				failed++
			}
			end = max(end, p.Now())
		}); err != nil {
			panic(err)
		}
	}
	sys.Run()
	return end - t0, failed
}

// kindIKCExchange and kindIKCSvcQuery run one fan-out cell of the
// transport ablation; Config encodes it (Kernels = 1+extra, Instances =
// clients), Variant picks plain or batched. The wire-message split lives in
// Metrics (ReqMsgs/RepMsgs), so these kinds need no aux.
const (
	kindIKCExchange = "ikc-exchange"
	kindIKCSvcQuery = "ikc-svcquery"
)

func init() {
	registerKind(kindIKCExchange, ikcKind(core.IKCBatching{Exchange: true}, fanoutExchange))
	registerKind(kindIKCSvcQuery, ikcKind(core.IKCBatching{ServiceQuery: true}, fanoutSvcQuery))
}

// ikcKind is one cell of the transport ablation: drive's fan-out on the
// lossless fabric, under the batched policy or none. Nothing may fail there.
func ikcKind(batched core.IKCBatching, drive fanoutDriver) kindFunc {
	return func(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
		n, extra := spec.Config.Instances, spec.Config.Kernels-1
		var pol core.IKCBatching
		if spec.Variant == "batched" {
			pol = batched
		}
		sys, pes := fanoutSystem(eng, n, extra, pol, nil)
		defer sys.Close()
		makespan, failed := drive(sys, pes)
		if failed != 0 {
			return Metrics{}, nil, fmt.Errorf("%d of %d operations failed on a lossless fabric", failed, n)
		}
		return ikcMetrics(sys, makespan), nil, audit(sys)
	}
}

// ikcOps is the operation axis of the transport ablation; the planner and
// the post-process both iterate it so the grid cannot fall out of step.
var ikcOps = []struct{ name, kind string }{
	{"exchange", kindIKCExchange},
	{"svcquery", kindIKCSvcQuery},
}

// ablationIKCSpecs plans the (operation, breadth, variant) grid.
func ablationIKCSpecs(breadths []int, extra int) []TaskSpec {
	var specs []TaskSpec
	for _, op := range ikcOps {
		for _, n := range breadths {
			for _, variant := range []string{"plain", "batched"} {
				specs = append(specs, TaskSpec{
					Experiment: "ablation/" + op.name + "-" + variant,
					Kind:       op.kind,
					Variant:    variant,
					Config:     ExpConfig{Kernels: extra + 1, Instances: n},
				})
			}
		}
	}
	return specs
}

// AblationIKC measures the unified-transport batching of capability
// exchange and service queries against the plain per-request transport,
// spreading the clients over 1+extra kernels. Every (breadth, operation,
// variant) cell is an independent simulation in one planned batch.
func AblationIKC(o Options, maxClients, extra int) AblationIKCResult {
	if maxClients <= 0 {
		maxClients = 96
	}
	if extra <= 0 {
		extra = 12
	}
	var breadths []int
	for n := 16; n <= maxClients; n += 16 {
		breadths = append(breadths, n)
	}
	const nvariants = 2 // plain, batched
	idx := func(k, b, v int) int { return (k*len(breadths)+b)*nvariants + v }
	rs := o.execute(ablationIKCSpecs(breadths, extra))
	r := AblationIKCResult{ExtraKernels: extra}
	for ki := range ikcOps {
		rows := make([]IKCRow, 0, len(breadths))
		for bi, n := range breadths {
			plain := rs[idx(ki, bi, 0)].Metrics
			batched := rs[idx(ki, bi, 1)].Metrics
			rows = append(rows, IKCRow{
				Clients:        n,
				PlainCycles:    sim.Duration(plain.Cycles),
				BatchedCycles:  sim.Duration(batched.Cycles),
				PlainMsgs:      plain.ReqMsgs + plain.RepMsgs,
				BatchedMsgs:    batched.ReqMsgs + batched.RepMsgs,
				PlainReqMsgs:   plain.ReqMsgs,
				BatchedReqMsgs: batched.ReqMsgs,
				PlainRepMsgs:   plain.RepMsgs,
				BatchedRepMsgs: batched.RepMsgs,
			})
		}
		if ki == 0 {
			r.Exchange = rows
		} else {
			r.SvcQuery = rows
		}
	}
	o.record(rs)
	return r
}

// Print writes the transport ablation tables, splitting wire messages into
// request and reply direction (total = req + rep).
func (r AblationIKCResult) Print(w io.Writer) {
	section := func(name string, rows []IKCRow) {
		fmt.Fprintf(w, "Ablation: %s batching (fan-out over 1+%d kernels)\n", name, r.ExtraKernels)
		fmt.Fprintln(w, "clients  plain(µs)  batched(µs)  speedup   plain req+rep      batched req+rep    msg-cut")
		for _, row := range rows {
			fmt.Fprintf(w, "%6d   %9.2f  %11.2f  %6.2fx   %6d+%-6d      %6d+%-6d     %5.2fx\n",
				row.Clients,
				float64(row.PlainCycles)/core.CyclesPerMicrosecond,
				float64(row.BatchedCycles)/core.CyclesPerMicrosecond,
				float64(row.PlainCycles)/float64(row.BatchedCycles),
				row.PlainReqMsgs, row.PlainRepMsgs,
				row.BatchedReqMsgs, row.BatchedRepMsgs,
				float64(row.PlainMsgs)/float64(row.BatchedMsgs))
		}
	}
	section("capability exchange", r.Exchange)
	section("service query", r.SvcQuery)
}

// Print writes the ablation table.
func (r AblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation: revoke message batching (tree over 1+%d kernels)\n", r.ExtraKernels)
	fmt.Fprintln(w, "caps   plain(µs)  batched(µs)  speedup   plain-msgs  batched-msgs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%4d   %9.2f  %11.2f  %6.2fx   %10d  %12d\n",
			row.Children,
			float64(row.PlainCycles)/core.CyclesPerMicrosecond,
			float64(row.BatchedCycles)/core.CyclesPerMicrosecond,
			float64(row.PlainCycles)/float64(row.BatchedCycles),
			row.PlainMsgs, row.BatchedMsgs)
	}
}
