package bench

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestChurnStorm drives the churn scenario at test scale and checks its
// headline contract: the storm drains (no hangs), the crashed kernel
// rejoins exactly once, operations degrade but complete partially, no
// kernel declares a live peer dead, the storm ends within twice the no-crash
// control's makespan, and no capability or DDL state is left owned by the
// dead incarnation (a leak is the task's error, which Churn panics with).
func TestChurnStorm(t *testing.T) {
	r, err := Churn(Options{FaultSeed: 1}, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(r.Rows))
	}
	control := r.Rows[0].Cycles // the nocrash row
	for _, row := range r.Rows {
		if row.Completed <= 0 || row.Completed > 1 {
			t.Errorf("%s at %dbp: completed %.3f outside (0, 1]", row.Scenario, row.DropBp, row.Completed)
		}
		// The revocation storm must race at least one exchange into failure
		// on every row — otherwise the schedule no longer interleaves and
		// the scenario tests nothing.
		if row.Aux.Obtains == uint64(r.Clients) {
			t.Errorf("%s at %dbp: every obtain succeeded — no revocation/exchange race", row.Scenario, row.DropBp)
		}
		if row.Aux.Revokes == 0 {
			t.Errorf("%s at %dbp: no revocation succeeded", row.Scenario, row.DropBp)
		}
		// The table's obtains and revokes columns are kernel counters: they
		// must add up to what the clients and the root saw succeed.
		if ok := float64(row.Aux.Obtains+row.Aux.Revokes) / float64(r.Clients+churnRevokes); ok != row.Completed {
			t.Errorf("%s at %dbp: counters say %.4f completed, the script %.4f", row.Scenario, row.DropBp, ok, row.Completed)
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
			if row.Aux.RejoinCycles == 0 {
				t.Errorf("storm at %dbp: rejoin recorded no cycles", row.DropBp)
			}
			if row.Aux.Blackholed == 0 {
				t.Errorf("storm at %dbp: nothing blackholed — crash window missed the storm", row.DropBp)
			}
			// Post-recovery arrivals must reach the rejoined fabric: the
			// storm cannot fail every obtain of the crashed kernel's clients.
			if row.Aux.Obtains == 0 {
				t.Errorf("storm at %dbp: every obtain failed", row.DropBp)
			}
			// A request that waited across the rejoin leaves as the new
			// incarnation's: no peer rejects it as stale and no retry ladder
			// runs out against a live kernel.
			if row.Aux.DeadPeers != 0 {
				t.Errorf("storm at %dbp: %d live peers declared dead", row.DropBp, row.Aux.DeadPeers)
			}
			if row.Cycles > 2*control {
				t.Errorf("storm at %dbp: makespan %d cycles, over twice the no-crash row's %d", row.DropBp, row.Cycles, control)
			}
		}
	}
}

// TestChurnDeterministic: the churn report is an exact function of (seed,
// plan) — byte-identical across worker-pool sizes, and different under a
// different seed.
func TestChurnDeterministic(t *testing.T) {
	a, err := Churn(Options{FaultSeed: 3, Parallel: 1}, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Churn(Options{FaultSeed: 3, Parallel: 4}, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical seeds diverged across pool sizes:\n%+v\n%+v", a, b)
	}
	d, err := Churn(Options{FaultSeed: 4}, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, d.Rows) {
		t.Errorf("seeds 3 and 4 produced identical storms")
	}
}

// TestChurnRejectsInvalidScenarios: a machine beyond the architectural
// limits is an error before any simulation runs.
func TestChurnRejectsInvalidScenarios(t *testing.T) {
	if _, err := Churn(Options{}, 16, core.MaxKernels); err == nil {
		t.Errorf("a machine of %d kernels was accepted", core.MaxKernels+1)
	} else if !strings.Contains(err.Error(), "exceed the maximum") {
		t.Errorf("unexpected error for an oversized machine: %v", err)
	}
}
