package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestChurnStorm drives the churn scenario at test scale and checks its
// headline contract: the storm drains (no hangs), the crashed kernel
// rejoins exactly once, operations degrade but complete partially, and no
// capability or DDL state is left owned by the dead incarnation (a leak is
// the task's error, which Churn panics with).
func TestChurnStorm(t *testing.T) {
	r, err := Churn(Options{FaultSeed: 1}, 64, 8, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(r.Rows))
	}
	if r.CrashKernel != 8 {
		t.Fatalf("auto crash kernel = %d, want the last kernel (8)", r.CrashKernel)
	}
	for _, row := range r.Rows {
		if row.Completed <= 0 || row.Completed > 1 {
			t.Errorf("%s at %dbp: completed %.3f outside (0, 1]", row.Scenario, row.DropBp, row.Completed)
		}
		// The revocation storm must race at least one exchange into failure
		// on every row — otherwise the schedule no longer interleaves and
		// the scenario tests nothing.
		if row.Aux.ObtainsOK == row.Aux.ObtainsAttempted {
			t.Errorf("%s at %dbp: every obtain succeeded — no revocation/exchange race", row.Scenario, row.DropBp)
		}
		if row.Aux.RevokesOK == 0 {
			t.Errorf("%s at %dbp: no revocation succeeded", row.Scenario, row.DropBp)
		}
		switch row.Scenario {
		case "nocrash":
			if row.Aux.Rejoins != 0 {
				t.Errorf("nocrash row recorded %d rejoins", row.Aux.Rejoins)
			}
		case "storm":
			if row.Aux.Rejoins != 1 {
				t.Errorf("storm at %dbp: Rejoins = %d, want 1", row.DropBp, row.Aux.Rejoins)
			}
			if row.Aux.MeanRejoinCycles == 0 {
				t.Errorf("storm at %dbp: rejoin recorded no cycles", row.DropBp)
			}
			if row.Aux.Blackholed == 0 {
				t.Errorf("storm at %dbp: nothing blackholed — crash window missed the storm", row.DropBp)
			}
			// Post-recovery arrivals must reach the rejoined fabric: the
			// storm cannot fail every obtain of the crashed kernel's clients.
			if row.Aux.ObtainsOK == 0 {
				t.Errorf("storm at %dbp: every obtain failed", row.DropBp)
			}
		}
	}
}

// TestChurnDeterministic: the churn report is an exact function of (seed,
// plan) — byte-identical across worker-pool sizes, and different under a
// different seed.
func TestChurnDeterministic(t *testing.T) {
	a, err := Churn(Options{FaultSeed: 3, Parallel: 1}, 32, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(Options{FaultSeed: 3, Parallel: 4}, 32, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical seeds diverged across pool sizes:\n%+v\n%+v", a, b)
	}
	d, err := Churn(Options{FaultSeed: 4}, 32, 4, -1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, d.Rows) {
		t.Errorf("seeds 3 and 4 produced identical storms")
	}
}

// TestChurnRejectsInvalidScenarios: out-of-range crash kernels and machines
// beyond the architectural limits are errors before any simulation runs.
func TestChurnRejectsInvalidScenarios(t *testing.T) {
	if _, err := Churn(Options{}, 16, 4, 9); err == nil {
		t.Errorf("out-of-range crash kernel was accepted")
	}
	if _, err := Churn(Options{}, 16, core.MaxKernels, -1); err == nil {
		t.Errorf("a machine of %d kernels was accepted", core.MaxKernels+1)
	} else if !strings.Contains(err.Error(), "exceed the maximum") {
		t.Errorf("unexpected error for an oversized machine: %v", err)
	}
	// Crashing kernel 0, the root's, is degenerate but legal.
	if _, err := Churn(Options{}, 16, 4, 0); err != nil {
		t.Errorf("crashing kernel 0 rejected: %v", err)
	}
}
