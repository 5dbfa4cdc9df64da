package bench

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// miniSweep runs a cross-section of the evaluation (micro, chain, tree,
// ablation and workload kinds — including the aux-carrying Table 4 path) in
// the given simulation mode ("" or core.SimModeMerged for the sequential
// engine, core.SimModeRounds for isolated rounds), and returns the recorded
// report rows with wallclocks (and the wallclock-bearing per-domain
// attribution) zeroed, so two sweeps compare on simulated data only.
func miniSweep(simMode string) []Result {
	o := Quick()
	o.Parallel = 2
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
		rs[i].HeapPeakBytes = 0
		rs[i].Domains = nil
	}
	return rs
}

// TestRoundsDeterminism: the acceptance criterion of the isolated-rounds
// runtime — a quick-scale sweep in rounds mode produces simulated metrics
// byte-identical across repeats. Rounds metrics legitimately differ from
// merged-mode metrics (cross-kernel rendezvous carry NoC latency), so the
// baseline here is the rounds run itself.
func TestRoundsDeterminism(t *testing.T) {
	base, got := miniSweep(core.SimModeRounds), miniSweep(core.SimModeRounds)
	if len(got) != len(base) {
		t.Fatalf("repeat: %d rows, want %d", len(got), len(base))
	}
	for i := range base {
		if !reflect.DeepEqual(base[i], got[i]) {
			t.Errorf("repeat row %d differs:\n  first:  %+v\n  second: %+v", i, base[i], got[i])
		}
	}
}

// TestRoundsDiverges pins down that rounds mode is a different cost model,
// not an accidental replica of merged: at least one multi-kernel row of the
// mini sweep must change metrics when cross-kernel interactions start paying
// NoC latency, while every single-kernel row must stay byte-identical
// (a single kernel has one domain — nothing to isolate).
func TestRoundsDiverges(t *testing.T) {
	merged := miniSweep("")
	rounds := miniSweep(core.SimModeRounds)
	if len(merged) != len(rounds) {
		t.Fatalf("row counts differ: %d merged, %d rounds", len(merged), len(rounds))
	}
	multiDiff := 0
	for i := range merged {
		if merged[i].Experiment != rounds[i].Experiment || merged[i].Config != rounds[i].Config {
			t.Fatalf("row %d identity differs: %s %+v vs %s %+v",
				i, merged[i].Experiment, merged[i].Config, rounds[i].Experiment, rounds[i].Config)
		}
		same := merged[i].Metrics == rounds[i].Metrics
		if merged[i].Config.Kernels <= 1 && !same {
			t.Errorf("single-kernel row %d (%s) changed under rounds:\n  merged: %+v\n  rounds: %+v",
				i, merged[i].Experiment, merged[i].Metrics, rounds[i].Metrics)
		}
		if merged[i].Config.Kernels > 1 && !same {
			multiDiff++
		}
	}
	if multiDiff == 0 {
		t.Error("no multi-kernel row changed metrics under rounds; NoC latency is not being charged")
	}
}
