package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestBadFlagsExit2: negative sizes, unknown modes, unknown flags and
// positional arguments are usage errors — a message on stderr and exit 2
// before any simulation runs. A negative -scalekernels used to run the whole
// 1024-kernel grid, and an experiment named without -experiment ran all ten.
// The flags
// of the retired shard protocol, recorded-cost scheduler and scale budget are
// unknown flags like any other.
func TestBadFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "scale", "-scalekernels", "-5"}, "-scalekernels must be non-negative"},
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

// TestFailedTaskExits1: the sweeps' fail-fast panic ends the run as one line
// on stderr and exit 1, after the defers registered later (profile flush,
// file close) have run; any other panic is a bug and is not swallowed.
func TestFailedTaskExits1(t *testing.T) {
	var stderr bytes.Buffer
	flushed := false
	run := func(v any) (code int) {
		defer reportTaskFailure(&stderr, &code)
		defer func() { flushed = true }()
		panic(v)
	}
	if code := run(bench.TaskError("bench: experiment fig5 {Kernels:2} failed: nope")); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if !flushed {
		t.Error("the later defers did not run")
	}
	if got, want := stderr.String(), "semperos-bench: bench: experiment fig5 {Kernels:2} failed: nope\n"; got != want {
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
