package bench

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// The plan → execute → post-process architecture. Every experiment first
// enumerates its runs as Tasks (the plan), hands them to the worker pool
// (Options.execute → runTasks) and derives its figure/table values from the
// ordered Results afterwards (the post-process). A task is its report row
// (experiment name, machine configuration) and a closure the planner builds
// over everything else the run needs, so the planner states a run once: the
// closure fills the task's Result and writes any value only the post-process
// reads (Table 4's makespan, the ablation's message count, a fault row's
// counters, ...) into a slot the planner owns. The post-process reads the
// slots after the pool has finished, so the writes need no locking.

// Task is one experiment run. Experiment and Config name its report row;
// Run runs it on a fresh-state engine, fills res.Metrics (and
// res.CapsMinted, where the run counts the capabilities its kernels
// created) and returns the task's error.
type Task struct {
	Experiment string
	Config     ExpConfig
	Run        func(eng *sim.Engine, res *Result) error
}

// execute runs the plan on the worker pool and fail-fasts on the first task
// error (a broken experiment is a bug, not data).
func (o Options) execute(tasks []Task) []Result {
	rs := runTasks(o.Parallel, tasks)
	mustOK(rs)
	return rs
}

// TaskSpec and RunSpec are frozen by the benchmark module, which times one
// Table 3 cell through them (benchmark/probes.go); in this module only
// semperos-bench's exit-code test calls them, for a failed task, and nothing
// new may use or extend them. Experiments plan Tasks.
type TaskSpec struct {
	Experiment, Kind, Variant string
	Config                    ExpConfig
}

// RunSpec runs the Table 3 cell named by spec.Variant through the task
// runner; any other kind or variant is a task that fails, and its error
// Result names its row like any failed task's.
func RunSpec(spec TaskSpec) Result {
	var revoke uint64
	run := table3Run(spec.Variant, &revoke)
	if spec.Kind != "table3" || !slices.Contains(microVariants, spec.Variant) {
		run = func(*sim.Engine, *Result) error { return fmt.Errorf("no Table 3 cell %q/%q", spec.Kind, spec.Variant) }
	}
	return runTask(Task{Experiment: spec.Experiment, Config: spec.Config, Run: run})
}
