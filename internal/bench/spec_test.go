package bench

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunSpecMatchesWorkloadRun: executing a spec through the registry
// produces the same simulated metrics as calling workload.Run directly,
// pinned here for one workload cell.
func TestRunSpecMatchesWorkloadRun(t *testing.T) {
	spec := workloadSpecs("det", []workload.Config{
		{Kernels: 2, Services: 2, Instances: 4, Trace: trace.Tar()},
	})[0]
	res := RunSpec(spec)
	if res.Error != "" {
		t.Fatalf("spec run failed: %s", res.Error)
	}
	direct, err := workload.Run(workload.Config{Kernels: 2, Services: 2, Instances: 4, Trace: trace.Tar()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Cycles != uint64(direct.MeanRuntime()) || res.Metrics.CapOps != direct.TotalCapOps {
		t.Errorf("spec metrics %+v != direct run (cycles %d, capops %d)",
			res.Metrics, direct.MeanRuntime(), direct.TotalCapOps)
	}
	if aux := auxOf[workloadAux](res); aux.Makespan != uint64(direct.Makespan) {
		t.Errorf("aux makespan %d != direct %d", aux.Makespan, direct.Makespan)
	}
}

// TestRunSpecUnknownKind: an unresolvable spec becomes an error Result, not
// a panic.
func TestRunSpecUnknownKind(t *testing.T) {
	res := RunSpec(TaskSpec{Experiment: "x", Kind: "no-such-kind"})
	if res.Error == "" {
		t.Fatal("unknown kind did not error")
	}
}
