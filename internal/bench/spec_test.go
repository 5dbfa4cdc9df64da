package bench

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunSpecMatchesWorkloadRun: a planned workload task produces the same
// simulated metrics, and writes the same makespan into its slot, as calling
// workload.Run directly, pinned here for one workload cell.
func TestRunSpecMatchesWorkloadRun(t *testing.T) {
	cfg := workload.Config{Kernels: 2, Services: 2, Instances: 4, Trace: trace.Tar()}
	tasks, makespans := workloadTasks("det", []workload.Config{cfg})
	res := runTask(tasks[0])
	if res.Error != "" {
		t.Fatalf("task failed: %s", res.Error)
	}
	direct, err := workload.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Cycles != uint64(direct.MeanRuntime()) || res.Metrics.CapOps != direct.TotalCapOps {
		t.Errorf("task metrics %+v != direct run (cycles %d, capops %d)",
			res.Metrics, direct.MeanRuntime(), direct.TotalCapOps)
	}
	if makespans[0] != uint64(direct.Makespan) {
		t.Errorf("makespan slot %d != direct %d", makespans[0], direct.Makespan)
	}
}

// TestRunSpecRunsTable3Cell: RunSpec runs the Table 3 cell its Variant names, and no other spec.
func TestRunSpecRunsTable3Cell(t *testing.T) {
	res := RunSpec(TaskSpec{Experiment: "table3/exchange-local", Kind: "table3", Variant: "local", Config: ExpConfig{Kernels: 2, Instances: 2}})
	o := Quick()
	o.Report = NewReport(true, 1)
	Table3(o)
	row := o.Report.Results[0]
	if res.Error != "" || res.Experiment != row.Experiment || res.Config != row.Config || res.Metrics != row.Metrics {
		t.Errorf("RunSpec: %+v; Table 3's row: %+v", res, row)
	}
	for _, bad := range []TaskSpec{{Kind: "fig4", Variant: "local"}, {Kind: "table3", Variant: "lokal"}} {
		if res := RunSpec(bad); res.Error == "" {
			t.Errorf("RunSpec ran %+v as a Table 3 cell: %+v", bad, res)
		}
	}
}
