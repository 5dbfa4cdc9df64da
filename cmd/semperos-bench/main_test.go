package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestBadFlagsExit2: negative sizes, unknown modes, unknown flags and
// positional arguments are usage errors — a message on stderr and exit 2
// before any simulation runs. A negative -scalekernels used to run the whole
// 1024-kernel grid, one below the smallest grid point ran nothing and exited
// 0, and an experiment named without -experiment ran all ten.
// The flags
// of the retired shard protocol, recorded-cost scheduler and scale budget are
// unknown flags like any other.
func TestBadFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "scale", "-scalekernels", "-5"}, "-scalekernels must be non-negative"},
		{[]string{"-quick", "-experiment", "scale", "-scalekernels", "1"}, "-scalekernels 1 is below the smallest scale point (64 kernels)"},
		{[]string{"-parallel", "-1"}, "-parallel must be non-negative"},
		{[]string{"-quick", "-nosuchflag", "2"}, "flag provided but not defined: -nosuchflag"},
		{[]string{"-quick", "-simmode", "rounds"}, "flag provided but not defined: -simmode"},
		{[]string{"-quick", "-shards", "2"}, "flag provided but not defined: -shards"},
		{[]string{"-worker"}, "flag provided but not defined: -worker"},
		{[]string{"-quick", "-costs", "x"}, "flag provided but not defined: -costs"},
		{[]string{"-experiment", "scale", "-scalebudget", "1s"}, "flag provided but not defined: -scalebudget"},
		{[]string{"-quick", "table3"}, `unexpected argument "table3"; name experiments with -experiment`},
	} {
		var stderr bytes.Buffer
		if code := realMain(c.args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not contain %q", c.args, stderr.String(), c.want)
		}
	}
}

// TestUnwritableOutputExits1BeforeTheSweep: an output file that cannot be
// created ends the run with exit 1 before the first experiment, for -json
// and -memprofile as for -cpuprofile. Both used to be created only after the
// whole sweep had run.
func TestUnwritableOutputExits1BeforeTheSweep(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "x.out")
	for _, flag := range []string{"-json", "-memprofile", "-cpuprofile"} {
		args := []string{"-quick", "-experiment", "table3", flag, bad}
		stdout, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stdout
		os.Stdout = stdout
		var stderr bytes.Buffer
		code := realMain(args, &stderr)
		os.Stdout = saved
		stdout.Close()
		out, err := os.ReadFile(stdout.Name())
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if want := "creating " + bad; !strings.Contains(stderr.String(), want) {
			t.Errorf("%v: stderr %q does not contain %q", args, stderr.String(), want)
		}
		if strings.Contains(string(out), " took ") {
			t.Errorf("%v: an experiment ran before the run failed:\n%s", args, out)
		}
	}
}

// TestFailedTaskExits1: the sweeps' fail-fast panic — a failed result's
// error, as it stands — ends the run as one line on stderr and exit 1, after
// the defers registered later (profile flush, file close) have run; any
// other panic is a bug and is not swallowed.
func TestFailedTaskExits1(t *testing.T) {
	// A real failed result: a task that names no Table 3 cell.
	failed := bench.RunSpec(bench.TaskSpec{Experiment: "table3/exchange-x", Kind: "table3", Variant: "x", Config: bench.ExpConfig{Kernels: 2}})
	if want := `task table3/exchange-x {Kernels:2 Services:0 Instances:0}: no Table 3 cell "table3"/"x"`; failed.Error != want {
		t.Fatalf("the failed task's error is %q, want %q", failed.Error, want)
	}
	var stderr bytes.Buffer
	flushed := false
	run := func(v any) (code int) {
		defer reportTaskFailure(&stderr, &code)
		defer func() { flushed = true }()
		panic(v)
	}
	if code := run(bench.TaskError(failed.Error)); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !flushed {
		t.Error("the later defers did not run")
	}
	if got, want := stderr.String(), "semperos-bench: "+failed.Error+"\n"; got != want {
		t.Errorf("stderr %q, want %q", got, want)
	}

	defer func() {
		if r := recover(); r != "a bug" {
			t.Errorf("recovered %v, want the bug's own panic", r)
		}
	}()
	run("a bug")
	t.Error("a non-task panic was swallowed")
}

// quickBaselineArgs is the command line BENCH_quick.json was made with.
const quickBaselineArgs = "-quick -experiment all,ablation-ikc,faults,churn,scale -scalekernels 128 -faultseed 1"

// TestQuickBaseline runs BENCH_quick.json's command line in-process and
// compares the fresh rows with the committed file as bench-compare does:
// every simulated metric of every row must be identical. It is the net
// under a change that must leave the simulation as it was, and costs a few
// seconds, so -short skips it. Under the race detector it costs about a
// minute, and the rows it compares are the plain run's: it skips there too.
// What the detector looks for, harness workers sharing state, CI's race
// smoke runs on four workers over the fault, churn and scale rows.
func TestQuickBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick sweep")
	}
	if raceEnabled {
		t.Skip("runs the whole quick sweep; the plain run compares the same rows")
	}
	freshPath := filepath.Join(t.TempDir(), "quick.json")
	saved := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull
	var stderr bytes.Buffer
	code := realMain(append(strings.Fields(quickBaselineArgs), "-json", freshPath), &stderr)
	os.Stdout = saved
	if code != 0 {
		t.Fatalf("semperos-bench %s: exit %d: %s", quickBaselineArgs, code, stderr.String())
	}
	base, err := bench.ReadReport("../../BENCH_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := bench.ReadReport(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if drift, compared := bench.Drift(&out, base, fresh, false); drift > 0 || compared == 0 {
		t.Fatalf("%d drifting and %d compared triple(s) against BENCH_quick.json:\n%s", drift, compared, out.String())
	}
}
