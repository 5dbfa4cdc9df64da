package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// TestRoundsDeterminism: the acceptance criterion of the isolated-rounds
// runtime — a quick-scale sweep in rounds mode produces simulated metrics
// byte-identical across repeats and across sharded execution. Rounds metrics
// legitimately differ from merged-mode metrics (cross-kernel rendezvous
// carry NoC latency), so the baseline here is the rounds run itself.
func TestRoundsDeterminism(t *testing.T) {
	base := miniSweep(nil, core.SimModeRounds)
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	diff := func(label string, got []Result) {
		t.Helper()
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(baseJSON, gotJSON) {
			return
		}
		if len(got) != len(base) {
			t.Errorf("%s: %d rows, want %d", label, len(got), len(base))
			return
		}
		for i := range base {
			if base[i].Experiment != got[i].Experiment || base[i].Config != got[i].Config ||
				base[i].Metrics != got[i].Metrics || base[i].Error != got[i].Error {
				t.Errorf("%s row %d differs:\n  in-process: %+v\n  got:        %+v",
					label, i, base[i], got[i])
			}
		}
	}
	diff("repeat", miniSweep(nil, core.SimModeRounds))
	if !testing.Short() {
		ex := testShardExecutor(2)
		got := miniSweep(ex, core.SimModeRounds)
		ex.Close()
		diff("-shards 2", got)
	}
}

// TestRoundsDiverges pins down that rounds mode is a different cost model,
// not an accidental replica of merged: at least one multi-kernel row of the
// mini sweep must change metrics when cross-kernel interactions start paying
// NoC latency, while every single-kernel row must stay byte-identical
// (a single kernel has one domain — nothing to isolate).
func TestRoundsDiverges(t *testing.T) {
	merged := miniSweep(nil, "")
	rounds := miniSweep(nil, core.SimModeRounds)
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
