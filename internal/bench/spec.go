package bench

import (
	"fmt"

	"repro/internal/sim"
)

// The plan → execute → post-process architecture. Every experiment first
// enumerates its runs as TaskSpecs (the plan), hands them to the worker pool
// (Options.execute → RunSpecs) and derives its figure/table values from the
// ordered Results afterwards (the post-process). A TaskSpec carries
// everything a run needs (experiment name, machine configuration, trace and
// scalar parameters) and the kind registry maps it to a run function, so the
// interface of a task is TaskSpec → Result and nothing else.

// TaskSpec describes one experiment run. Kind selects the run function from
// the registry; Config, Trace, Variant and Arg parameterize it. Experiment is
// the report row name.
type TaskSpec struct {
	Experiment string
	Kind       string
	Config     ExpConfig
	// Trace names the workload trace (kind "workload" only).
	Trace string
	// Variant distinguishes sub-cases of a kind (local/spanning/m3,
	// plain/batched, ...).
	Variant string
	// Arg is a kind-specific scalar (fig4: the figure's max chain length,
	// which sizes the machine identically across all its cells).
	Arg int
	// Seed keys the deterministic fault injector (kinds "faults" and
	// "churn").
	Seed uint64
}

// kindFunc executes one spec on a fresh-state engine. The second return is
// optional typed side data for the post-process step (Result.Aux); it never
// enters the report.
type kindFunc func(spec TaskSpec, eng *sim.Engine) (Metrics, any, error)

// kinds is the registry mapping TaskSpec.Kind to run functions. Each
// experiment file registers its kinds from init.
var kinds = map[string]kindFunc{}

func registerKind(name string, fn kindFunc) {
	if _, dup := kinds[name]; dup {
		panic("bench: duplicate task kind " + name)
	}
	kinds[name] = fn
}

// capsMinter is implemented by aux values that know how many capabilities
// their run minted; RunSpec lifts the count into Result.CapsMinted for the
// wallclock summary's capsalloc line.
type capsMinter interface{ capsMinted() uint64 }

// execute runs the plan on the worker pool and fail-fasts on the first task
// error (a broken experiment is a bug, not data).
func (o Options) execute(specs []TaskSpec) []Result {
	rs := RunSpecs(o.Parallel, specs)
	mustOK(rs)
	return rs
}

// auxOf returns a Result's side data as T. The post-process steps call it
// only on results whose kind produced that aux type; a mismatch is a
// programming error and panics like any other broken experiment.
func auxOf[T any](r Result) T {
	v, ok := r.Aux.(T)
	if !ok {
		panic(fmt.Sprintf("bench: aux of %s %+v is %T, not %T", r.Experiment, r.Config, r.Aux, v))
	}
	return v
}
