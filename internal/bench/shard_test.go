package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// The shard tests re-exec the test binary as protocol workers: TestMain
// flips into RunWorker when the coordinator's env marker is set, exactly
// like `semperos-bench -worker` does for the real binary.
const workerEnv = "SEMPEROS_BENCH_WORKER"

func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := RunWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testShardExecutor fans out over re-exec'd copies of this test binary.
func testShardExecutor(shards int) *ShardExecutor {
	return &ShardExecutor{
		Shards:   shards,
		Argv:     []string{os.Args[0]},
		ExtraEnv: []string{workerEnv + "=1"},
	}
}

// TestWorkerProtocol drives RunWorker in-memory: specs in, results out, in
// order, with task failures inside results (the worker must survive them).
func TestWorkerProtocol(t *testing.T) {
	specs := []wireTask{
		{Seq: 0, Spec: TaskSpec{Experiment: "fig5", Kind: kindFig5, Config: ExpConfig{Kernels: 2, Instances: 8}}},
		{Seq: 1, Spec: TaskSpec{Experiment: "broken", Kind: "no-such-kind"}},
		{Seq: 2, Spec: table3Specs()[0]},
	}
	var in bytes.Buffer
	enc := json.NewEncoder(&in)
	for _, wt := range specs {
		if err := enc.Encode(wt); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := RunWorker(&in, &out); err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	dec := json.NewDecoder(&out)
	var got []wireResult
	for dec.More() {
		var wr wireResult
		if err := dec.Decode(&wr); err != nil {
			t.Fatal(err)
		}
		got = append(got, wr)
	}
	if len(got) != len(specs) {
		t.Fatalf("got %d results, want %d", len(got), len(specs))
	}
	for i, wr := range got {
		if wr.Seq != i {
			t.Errorf("result %d has seq %d", i, wr.Seq)
		}
	}
	// The protocol answers must carry the same simulated metrics as a local
	// run of the same specs.
	for i := range specs {
		want := RunSpec(specs[i].Spec)
		if got[i].Result.Metrics != want.Metrics || !bytes.Equal(got[i].Result.Aux, want.Aux) {
			t.Errorf("task %d: protocol result %+v (aux %s) != local %+v (aux %s)",
				i, got[i].Result.Metrics, got[i].Result.Aux, want.Metrics, want.Aux)
		}
	}
	if got[1].Result.Error == "" {
		t.Error("broken task did not report an error through the protocol")
	}
	if got[2].Result.Error != "" {
		t.Errorf("task after the broken one failed: %s", got[2].Result.Error)
	}
}

// miniSweep runs a cross-section of the evaluation (micro, chain, tree,
// ablation and workload kinds — including the aux-carrying Table 4 path)
// on the given executor in the given simulation mode ("" or
// core.SimModeMerged for the sequential engine, core.SimModeRounds for
// isolated rounds — see TestRoundsDeterminism), and returns the recorded
// report rows with wallclocks (and the wallclock-bearing per-domain
// attribution) zeroed, so two sweeps compare on simulated data only.
func miniSweep(ex Executor, simMode string) []Result {
	o := Quick()
	o.Parallel = 2
	o.Executor = ex
	o.SimMode = simMode
	o.Report = NewReport(true, 1)
	Table3(o)
	Fig4(o, 20)
	Fig5(o, 32)
	AblationBatching(o, 32, 3)
	Table4(o)
	rs := make([]Result, len(o.Report.Results))
	copy(rs, o.Report.Results)
	for i := range rs {
		rs[i].WallclockNS = 0
		rs[i].Domains = nil
	}
	return rs
}

// TestShardDeterminism: the acceptance criterion of the sharded harness —
// a quick-scale sweep executed on 1, 2 and 4 worker processes produces
// simulated metrics byte-identical to the in-process run, row for row.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	base := miniSweep(nil, "")
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		ex := testShardExecutor(shards)
		got := miniSweep(ex, "")
		ex.Close()
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(baseJSON, gotJSON) {
			continue
		}
		if len(got) != len(base) {
			t.Errorf("-shards %d: %d rows, want %d", shards, len(got), len(base))
			continue
		}
		for i := range base {
			if base[i].Experiment != got[i].Experiment || base[i].Config != got[i].Config ||
				base[i].Metrics != got[i].Metrics || base[i].Error != got[i].Error {
				t.Errorf("-shards %d row %d differs:\n  in-process: %+v\n  sharded:    %+v",
					shards, i, base[i], got[i])
			}
		}
	}
}

// TestShardExecutorReuse: workers persist across Execute batches (their
// engine pools stay warm), and a second batch still merges in spec order.
func TestShardExecutorReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	ex := testShardExecutor(2)
	defer ex.Close()
	specs := fig5Specs([]int{0, 16, 32}, []int{0, 1})
	first := ex.Execute(specs)
	second := ex.Execute(specs)
	if len(first) != len(specs) || len(second) != len(specs) {
		t.Fatalf("result counts: %d, %d, want %d", len(first), len(second), len(specs))
	}
	for i := range specs {
		if first[i].Error != "" || second[i].Error != "" {
			t.Fatalf("task %d failed: %q / %q", i, first[i].Error, second[i].Error)
		}
		if first[i].Metrics != second[i].Metrics {
			t.Errorf("task %d drifted across batches: %+v vs %+v", i, first[i].Metrics, second[i].Metrics)
		}
		if first[i].Experiment != specs[i].Experiment || first[i].Config != specs[i].Config {
			t.Errorf("task %d out of order: got %s %+v", i, first[i].Experiment, first[i].Config)
		}
	}
}

// TestShardWorkerCrash: a worker that dies mid-protocol fails only the
// tasks it touches — the executor errors them instead of hanging, and a
// healthy fleet on the same executor still works afterwards.
func TestShardWorkerCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	if _, err := os.Stat("/bin/true"); err != nil {
		t.Skip("/bin/true unavailable")
	}
	ex := &ShardExecutor{Shards: 2, Argv: []string{"/bin/true"}}
	defer ex.Close()
	specs := fig5Specs([]int{0, 16}, []int{0})
	rs := ex.Execute(specs)
	if len(rs) != len(specs) {
		t.Fatalf("got %d results, want %d", len(rs), len(specs))
	}
	for i, r := range rs {
		if r.Error == "" {
			t.Errorf("task %d against a dead worker succeeded: %+v", i, r)
		}
	}
}

// TestShardWorkerFlapping: a worker binary that can never start exhausts
// the slot's respawn budget and degrades to fail-fast error results —
// bounded attempts, no spawn storm, every task still answered.
func TestShardWorkerFlapping(t *testing.T) {
	const maxRespawns = 3
	ex := &ShardExecutor{
		Shards:         1,
		Argv:           []string{"/nonexistent/semperos-bench-worker"},
		MaxRespawns:    maxRespawns,
		RespawnBackoff: time.Microsecond, // keep the capped ladder instant
	}
	defer ex.Close()
	specs := fig5Specs([]int{0, 8, 16, 24, 32, 40}, []int{0})
	start := time.Now()
	rs := ex.Execute(specs)
	if len(rs) != len(specs) {
		t.Fatalf("got %d results, want %d", len(rs), len(specs))
	}
	spawnErrs, disabled := 0, 0
	for i, r := range rs {
		if r.Error == "" {
			t.Fatalf("task %d against an unstartable worker succeeded: %+v", i, r)
		}
		if strings.Contains(r.Error, "slot disabled") {
			disabled++
		} else {
			spawnErrs++
		}
	}
	if spawnErrs != maxRespawns {
		t.Errorf("%d spawn-attempt failures, want exactly %d (the respawn budget)", spawnErrs, maxRespawns)
	}
	if disabled != len(specs)-maxRespawns {
		t.Errorf("%d fail-fast results, want %d", disabled, len(specs)-maxRespawns)
	}
	// Fail-fast means fail FAST: the whole batch resolves well inside the
	// time an unbounded backoff ladder would burn.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("flapping worker stalled the batch for %v", elapsed)
	}
}

// TestShardWorkerRecovers: one crash does not disable a slot — the next
// task respawns the worker and succeeds, and the failure count resets so a
// long healthy streak never accumulates toward the budget.
func TestShardWorkerRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	ex := testShardExecutor(1)
	ex.RespawnBackoff = time.Microsecond
	defer ex.Close()
	specs := fig5Specs([]int{0, 16}, []int{0})

	// Batch 1 runs healthy, then the worker is killed behind the
	// executor's back — the crash surfaces on the next batch's first task.
	first := ex.Execute(specs)
	for i, r := range first {
		if r.Error != "" {
			t.Fatalf("healthy batch task %d failed: %s", i, r.Error)
		}
	}
	ex.workers[0].cmd.Process.Kill()

	second := ex.Execute(specs)
	sawError := false
	for _, r := range second {
		if r.Error != "" {
			sawError = true
		}
	}
	if !sawError {
		// The kill may have raced the next dispatch; either way the batch
		// must have answered every task.
		t.Logf("killed worker drained the batch cleanly (kill raced the protocol)")
	}
	// A fresh batch after the crash runs entirely on the respawned worker.
	third := ex.Execute(specs)
	for i, r := range third {
		if r.Error != "" {
			t.Fatalf("post-respawn task %d failed: %s", i, r.Error)
		}
		if r.Metrics != first[i].Metrics {
			t.Errorf("post-respawn task %d drifted: %+v vs %+v", i, r.Metrics, first[i].Metrics)
		}
	}
}
