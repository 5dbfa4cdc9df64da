package bench

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// The plan → execute → post-process architecture. Every experiment first
// enumerates its runs as serializable TaskSpecs (the plan), hands them to an
// executor — the in-process worker pool or the multi-process ShardExecutor
// (shard.go) — and derives its figure/table values from the ordered Results
// afterwards (the post-process). Because a TaskSpec carries everything a run
// needs (experiment name, machine configuration, trace and scalar
// parameters) and the kind registry maps it back to a run function, any
// process that links this package can execute any task: that is what lets
// the sweep shard across worker processes while keeping the report — and
// every simulated metric — byte-identical to an in-process run.

// TaskSpec is the serializable description of one experiment run. Kind
// selects the run function from the registry; Config, Trace, Variant and
// Arg parameterize it. Experiment is the report row name and travels with
// the spec so workers need no naming logic.
type TaskSpec struct {
	Experiment string    `json:"experiment"`
	Kind       string    `json:"kind"`
	Config     ExpConfig `json:"config"`
	// Trace names the workload trace (kind "workload" only).
	Trace string `json:"trace,omitempty"`
	// Variant distinguishes sub-cases of a kind (local/spanning/m3,
	// plain/batched, ...).
	Variant string `json:"variant,omitempty"`
	// Arg is a kind-specific scalar (fig4: the figure's max chain length,
	// which sizes the machine identically across all its cells).
	Arg int `json:"arg,omitempty"`
	// Seed keys the deterministic fault injector (kinds "faults" and
	// "churn"). It travels with the spec so sharded workers reproduce the
	// same faults.
	Seed uint64 `json:"seed,omitempty"`
	// CrashKernel is the kernel PE the churn scenario crashes and recovers
	// (kind "churn" only); -1 means no crash. The zero value round-trips
	// through omitempty unchanged (absent decodes back to 0).
	CrashKernel int `json:"crashkernel,omitempty"`
	// SimMode selects merged (default) or isolated-rounds execution (see
	// core.Config.SimMode). It travels with the spec so sharded workers run
	// the same mode; rounds metrics are deterministic but differ from merged
	// by design (cross-domain latency is charged, not elided).
	SimMode string `json:"simmode,omitempty"`
}

// kindFunc executes one spec on a fresh-state engine. The second return is
// optional auxiliary data for the post-process step (serialized as JSON so
// it crosses the worker protocol); it never enters the report.
type kindFunc func(spec TaskSpec, eng *sim.Engine) (Metrics, any, error)

// kinds is the registry mapping TaskSpec.Kind back to run functions. Each
// experiment file registers its kinds from init, so every process linking
// this package — the coordinator and its re-exec'd workers alike — can
// execute every spec.
var kinds = map[string]kindFunc{}

func registerKind(name string, fn kindFunc) {
	if _, dup := kinds[name]; dup {
		panic("bench: duplicate task kind " + name)
	}
	kinds[name] = fn
}

// capsMinter is implemented by aux payloads that know how many capabilities
// their run minted. runSpecOn lifts the count into Result.CapsMinted (via
// the captured pointer in specTask) while the typed aux value is still in
// hand, so the wallclock summary's capsalloc line needs no aux decoding.
type capsMinter interface{ capsMinted() uint64 }

// runSpecOn resolves the spec's kind and executes it, marshaling the aux
// payload so the in-process path produces bit-identical Results to the
// worker protocol (which ships the same bytes). The third return is the
// minted-capability count of aux payloads that report one (else zero).
func runSpecOn(spec TaskSpec, eng *sim.Engine) (Metrics, json.RawMessage, uint64, error) {
	fn, ok := kinds[spec.Kind]
	if !ok {
		return Metrics{}, nil, 0, fmt.Errorf("bench: unknown task kind %q", spec.Kind)
	}
	m, aux, err := fn(spec, eng)
	if err != nil || aux == nil {
		return m, nil, 0, err
	}
	var minted uint64
	if cm, ok := aux.(capsMinter); ok {
		minted = cm.capsMinted()
	}
	raw, err := json.Marshal(aux)
	if err != nil {
		return m, nil, 0, fmt.Errorf("bench: marshaling %s aux: %w", spec.Kind, err)
	}
	return m, raw, minted, nil
}

// specTask adapts a spec to the Task machinery, capturing the aux payload
// into *aux and the minted-capability count into *minted (Task.Run only
// returns Metrics).
func specTask(spec TaskSpec, aux *json.RawMessage, minted *uint64) Task {
	return Task{
		Experiment: spec.Experiment,
		Config:     spec.Config,
		Run: func(eng *sim.Engine) (Metrics, error) {
			m, a, cm, err := runSpecOn(spec, eng)
			*aux = a
			*minted = cm
			return m, err
		},
	}
}

// RunSpec executes one spec on a pooled engine, capturing wallclock and
// panics — the worker's unit of work.
func RunSpec(spec TaskSpec) Result {
	var aux json.RawMessage
	var minted uint64
	res := runTask(specTask(spec, &aux, &minted))
	res.Aux = aux
	res.CapsMinted = minted
	return res
}

// RunSpecs executes the specs on a pool of `parallel` workers (<= 0 means
// GOMAXPROCS), dispatching longest-first per the cost model (nil = the
// instance-count heuristic) so a tail task cannot serialize the sweep.
// Results come back in spec order regardless of dispatch or completion
// order, so all simulated metrics are independent of both the parallelism
// and the schedule.
func RunSpecs(parallel int, specs []TaskSpec, costs *CostModel) []Result {
	tasks := make([]Task, len(specs))
	auxes := make([]json.RawMessage, len(specs))
	minted := make([]uint64, len(specs))
	for i, spec := range specs {
		tasks[i] = specTask(spec, &auxes[i], &minted[i])
	}
	results := runTasksOrdered(parallel, tasks, costs.Order(specs))
	for i := range results {
		results[i].Aux = auxes[i]
		results[i].CapsMinted = minted[i]
	}
	return results
}

// Executor runs a planned batch of specs and returns one Result per spec,
// in spec order. The zero configuration (Options.Executor == nil) executes
// in-process; ShardExecutor fans the batch out over worker processes.
type Executor interface {
	Execute(specs []TaskSpec) []Result
}

// execute runs the plan on the configured executor and fail-fasts on the
// first task error, preserving the historical behavior of the sweeps.
func (o Options) execute(specs []TaskSpec) []Result {
	if o.SimMode != "" {
		for i := range specs {
			specs[i].SimMode = o.SimMode
		}
	}
	var rs []Result
	if o.Executor != nil {
		rs = o.Executor.Execute(specs)
	} else {
		rs = RunSpecs(o.Parallel, specs, o.Costs)
	}
	mustOK(rs)
	return rs
}

// auxOf decodes a Result's auxiliary payload into T. The post-process steps
// call it only on results whose kind produced that aux type; a mismatch is
// a programming error and panics like any other broken experiment.
func auxOf[T any](r Result) T {
	var v T
	if err := json.Unmarshal(r.Aux, &v); err != nil {
		panic(fmt.Sprintf("bench: decoding aux of %s %+v: %v", r.Experiment, r.Config, err))
	}
	return v
}
