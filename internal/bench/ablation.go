package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/script"
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

// IKCRow compares plain and batched transport at one fan-out breadth: the
// Metrics of its two cells (Cycles is the fan-out's makespan, ReqMsgs and
// RepMsgs its wire messages by direction).
type IKCRow struct {
	Clients        int
	Plain, Batched Metrics
}

// AblationIKCResult holds the transport ablation over fan-out breadths.
type AblationIKCResult struct {
	ExtraKernels int
	Exchange     []IKCRow
	SvcQuery     []IKCRow
}

// fanoutConfig is the machine of fanoutSystem: 1+extra PE groups, each
// spare PEs larger than its share of the n clients.
func fanoutConfig(n, extra, spare int, pol core.IKCBatching, plan *fault.Plan) core.Config {
	perGroup := n + spare
	if extra > 0 {
		perGroup = (n+extra-1)/extra + spare
	}
	return core.Config{Kernels: extra + 1, UserPEs: (extra + 1) * perGroup, IKCBatching: pol, Faults: plan}
}

// fanoutSystem builds the fan-out machine of the ablations, the fault sweep
// and the churn storm: the owner/service group plus `extra` client groups, n
// clients spread round-robin over them. pes[0] hosts the owner or service,
// pes[1:] the clients, which leave the first spare-1 PEs of a client group
// free (the tree revocation has spare 1, the fan-outs 2).
func fanoutSystem(eng *sim.Engine, n, extra, spare int, pol core.IKCBatching, plan *fault.Plan) (*core.System, []int) {
	cfg := fanoutConfig(n, extra, spare, pol, plan)
	cfg.Engine = eng
	sys := core.MustNew(cfg)
	byGroup := script.Groups(sys)
	pes := make([]int, n+1)
	pes[0] = byGroup[0][0]
	for i := 0; i < n; i++ {
		g, off := 0, 1 // after the owner
		if extra > 0 {
			g, off = 1+i%extra, spare-1
		}
		pes[1+i] = byGroup[g][off+i/max(extra, 1)]
	}
	return sys, pes
}

// A fan-out script runs on a fanoutSystem machine's pes: VPE 0 is the owner
// or service, the others its clients, each with one op that may fail. Its
// second result is the op whose end starts the makespan, which ends with the
// run's last op. A failed op is data: under a fault plan it is the
// degradation being measured (faults.go), on the lossless fabric it is the
// task's error.

// fanoutExchange is n spanning obtains of one root capability.
func fanoutExchange(pes []int) (script.Script, script.Ref) {
	return fan(pes, rootOps[:2], kidOps), script.Ref{}
}

// svcOps is fanoutSvcQuery's service, handing out a capability of its own;
// svcClientOps opens a session once the service is up and obtains through
// it.
var (
	svcOps       = []script.Op{{Kind: script.Alloc}, {Kind: script.Serve, Latch: 1}}
	svcClientOps = []script.Op{{Kind: script.Wait, Latch: 1}, {Kind: script.Obtain, Session: true}}
)

// fanoutSvcQuery is n clients each opening a session to one service and
// performing one session-scoped obtain; failure at either step fails the
// client's op. The makespan starts when the service is registered.
func fanoutSvcQuery(pes []int) (script.Script, script.Ref) {
	return fan(pes, svcOps, svcClientOps), script.Ref{Op: 1}
}

// makespan is the time from the end of op from to the end of the run's
// last op.
func makespan(recs [][]script.Record, from script.Ref) sim.Duration {
	var end sim.Time
	for _, rs := range recs {
		for _, r := range rs {
			end = max(end, r.End)
		}
	}
	return end - recs[from.VPE][from.Op].End
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

// ikcKind is one cell of the transport ablation: gen's fan-out on the
// lossless fabric, under the batched policy or none. Nothing may fail there.
func ikcKind(batched core.IKCBatching, gen func([]int) (script.Script, script.Ref)) kindFunc {
	return func(spec TaskSpec, eng *sim.Engine) (Metrics, any, error) {
		n, extra := spec.Config.Instances, spec.Config.Kernels-1
		var pol core.IKCBatching
		if spec.Variant == "batched" {
			pol = batched
		}
		sys, pes := fanoutSystem(eng, n, extra, 2, pol, nil)
		defer sys.Close()
		sc, from := gen(pes)
		recs, err := playLossless(sys, sc, nil)
		if err != nil {
			return Metrics{}, nil, err
		}
		// The makespan and the run's wire messages, summed by direction.
		st := sys.TotalStats()
		return Metrics{Cycles: uint64(makespan(recs, from)), ReqMsgs: st.IKCSent, RepMsgs: st.IKCRepSent}, nil, nil
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
			rows = append(rows, IKCRow{Clients: n, Plain: rs[idx(ki, bi, 0)].Metrics, Batched: rs[idx(ki, bi, 1)].Metrics})
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
			p, b := row.Plain, row.Batched
			fmt.Fprintf(w, "%6d   %9.2f  %11.2f  %6.2fx   %6d+%-6d      %6d+%-6d     %5.2fx\n",
				row.Clients,
				float64(p.Cycles)/core.CyclesPerMicrosecond,
				float64(b.Cycles)/core.CyclesPerMicrosecond,
				float64(p.Cycles)/float64(b.Cycles),
				p.ReqMsgs, p.RepMsgs,
				b.ReqMsgs, b.RepMsgs,
				float64(p.ReqMsgs+p.RepMsgs)/float64(b.ReqMsgs+b.RepMsgs))
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
