package bench

import (
	"reflect"
	"testing"
)

// TestFaultsSweep drives the full fault-injection sweep at test scale and
// checks its headline contract: everything completes under probabilistic
// faults, the crash scenario degrades (its victims fail, everyone else
// finishes), losses scale with the drop rate, and nothing leaks (a leak is
// the task's error, which Faults panics with).
func TestFaultsSweep(t *testing.T) {
	r := Faults(Options{FaultSeed: 1}, 64, 8)
	if len(r.Rows) != 2*len(faultsRates)+2 {
		t.Fatalf("got %d rows, want %d", len(r.Rows), 2*len(faultsRates)+2)
	}
	var crashRow, recoverRow FaultsRow
	for _, row := range r.Rows {
		switch row.Workload {
		case "crash":
			crashRow = row
		case "crashrecover":
			recoverRow = row
		default:
			if row.Completed != 1 {
				t.Errorf("%s at %dbp: completed %.3f, want 1 (retransmission must recover every loss)",
					row.Workload, row.DropBp, row.Completed)
			}
			if row.DropBp == 0 && row.LostMsgs != 0 {
				t.Errorf("%s at 0bp lost %d messages on a drop-free fabric", row.Workload, row.LostMsgs)
			}
			if row.DropBp >= 100 && row.LostMsgs == 0 {
				t.Errorf("%s at %dbp lost nothing — injector not wired?", row.Workload, row.DropBp)
			}
		}
	}
	// The crash scenario: the last client kernel dies mid-fan-out, its
	// clients' operations resolve to errors, the rest complete.
	if crashRow.Completed >= 1 || crashRow.Completed <= 0 {
		t.Errorf("crash: completed %.3f, want partial completion in (0, 1)", crashRow.Completed)
	}
	if crashRow.Counters.DeadPeers == 0 {
		t.Errorf("crash: no kernel declared a peer dead")
	}
	if crashRow.Counters.FailFast == 0 && crashRow.Completed == 1 {
		t.Errorf("crash: no degraded operations at all: %+v", crashRow.Counters)
	}
	// The crash+recover scenario: the same kernel rejoins mid-storm. The old
	// incarnation's in-flight operations abort, so completion stays partial,
	// but the rejoin resolves the run far faster than the permanent crash's
	// RTO ladder.
	if recoverRow.Completed >= 1 || recoverRow.Completed <= 0 {
		t.Errorf("crashrecover: completed %.3f, want partial completion in (0, 1)", recoverRow.Completed)
	}
	if recoverRow.Counters.Rejoins != 1 {
		t.Errorf("crashrecover: Rejoins = %d, want 1", recoverRow.Counters.Rejoins)
	}
	if recoverRow.Counters.RejoinCycles == 0 {
		t.Errorf("crashrecover: rejoin recorded no cycles")
	}
	if crashRow.Counters.Rejoins != 0 {
		t.Errorf("crash: Rejoins = %d on a permanent crash", crashRow.Counters.Rejoins)
	}
	if recoverRow.Cycles >= crashRow.Cycles {
		t.Errorf("crashrecover makespan %d not faster than permanent crash %d — rejoin did not resolve the storm",
			recoverRow.Cycles, crashRow.Cycles)
	}
}

// TestFaultsDeterministic: the same seed reproduces the whole sweep
// byte-identically at any worker-pool size, and a different seed draws a
// different fault sequence.
func TestFaultsDeterministic(t *testing.T) {
	a := Faults(Options{FaultSeed: 3, Parallel: 1}, 32, 4)
	b := Faults(Options{FaultSeed: 3, Parallel: 4}, 32, 4)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical seeds diverged across pool sizes:\n%+v\n%+v", a, b)
	}
	c := Faults(Options{FaultSeed: 4, Parallel: 1}, 32, 4)
	if reflect.DeepEqual(a.Rows, c.Rows) {
		t.Errorf("seeds 3 and 4 produced identical sweeps")
	}
}
