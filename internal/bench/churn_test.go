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
	r := Churn(Options{FaultSeed: 1}, 64, 8)
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
		if row.Counters.Obtains == uint64(r.Clients) {
			t.Errorf("%s at %dbp: every obtain succeeded — no revocation/exchange race", row.Scenario, row.DropBp)
		}
		if row.Counters.Revokes == 0 {
			t.Errorf("%s at %dbp: no revocation succeeded", row.Scenario, row.DropBp)
		}
		// The table's obtains and revokes columns are kernel counters: they
		// must add up to what the clients and the root saw succeed.
		if ok := float64(row.Counters.Obtains+row.Counters.Revokes) / float64(r.Clients+churnRevokes); ok != row.Completed {
			t.Errorf("%s at %dbp: counters say %.4f completed, the script %.4f", row.Scenario, row.DropBp, ok, row.Completed)
		}
		switch row.Scenario {
		case "nocrash":
			if row.Counters.Rejoins != 0 {
				t.Errorf("nocrash row recorded %d rejoins", row.Counters.Rejoins)
			}
		case "storm":
			if row.Counters.Rejoins != 1 {
				t.Errorf("storm at %dbp: Rejoins = %d, want 1", row.DropBp, row.Counters.Rejoins)
			}
			if row.Counters.RejoinCycles == 0 {
				t.Errorf("storm at %dbp: rejoin recorded no cycles", row.DropBp)
			}
			if row.Counters.Blackholed == 0 {
				t.Errorf("storm at %dbp: nothing blackholed — crash window missed the storm", row.DropBp)
			}
			// Post-recovery arrivals must reach the rejoined fabric: the
			// storm cannot fail every obtain of the crashed kernel's clients.
			if row.Counters.Obtains == 0 {
				t.Errorf("storm at %dbp: every obtain failed", row.DropBp)
			}
			// A request that waited across the rejoin leaves as the new
			// incarnation's: no peer rejects it as stale and no retry ladder
			// runs out against a live kernel.
			if row.Counters.DeadPeers != 0 {
				t.Errorf("storm at %dbp: %d live peers declared dead", row.DropBp, row.Counters.DeadPeers)
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
	a := Churn(Options{FaultSeed: 3, Parallel: 1}, 32, 4)
	b := Churn(Options{FaultSeed: 3, Parallel: 4}, 32, 4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical seeds diverged across pool sizes:\n%+v\n%+v", a, b)
	}
	d := Churn(Options{FaultSeed: 4}, 32, 4)
	if reflect.DeepEqual(a.Rows, d.Rows) {
		t.Errorf("seeds 3 and 4 produced identical storms")
	}
}

// TestChurnRejectsInvalidScenarios: a machine beyond the architectural
// limits fails its tasks, and Churn panics with the TaskError naming them.
func TestChurnRejectsInvalidScenarios(t *testing.T) {
	defer func() {
		err, ok := recover().(TaskError)
		if !ok || !strings.HasPrefix(err.Error(), "task churn/nocrash-100bp {") || !strings.Contains(err.Error(), "exceed the maximum") {
			t.Errorf("an oversized machine panicked with %#v, want a TaskError naming the task and the limit", err)
		}
	}()
	Churn(Options{}, 16, core.MaxKernels)
	t.Errorf("a machine of %d kernels was accepted", core.MaxKernels+1)
}
