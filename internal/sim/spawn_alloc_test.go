package sim

import (
	"runtime/debug"
	"testing"
)

// spawnProcs is how many procs one spawnRound spawns.
const spawnProcs = 64

// spawnRound spawns spawnProcs procs that sleep once, runs them to their
// end and Resets e, as a pooled engine is between two runs.
func spawnRound(e *Engine) {
	for i := 0; i < spawnProcs; i++ {
		e.SpawnLazy(nil, i, sleepOnce)
	}
	e.Run()
	e.Reset()
}

func sleepOnce(p *Proc) { p.Sleep(1) }

// TestSpawnAllocationCeiling pins what a proc costs the heap: spawned, run
// to its end and dropped by the Reset of a pooled engine, one proc makes
// 11.125 allocations. 11 are iter.Pull's coroutine (its closures and the
// runtime's goroutine record), which no proc can avoid: the body it runs is
// the engine's, bound once, and the proc is its own step event. The Proc
// record is an eighth of a block of procBlock. The ceiling is the
// measurement plus 1.1%.
func TestSpawnAllocationCeiling(t *testing.T) {
	const ceiling = 11.25
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := NewEngine()
	spawnRound(e) // grow the engine's queues and registry
	per := testing.AllocsPerRun(20, func() { spawnRound(e) }) / spawnProcs
	t.Logf("%.3f allocations per proc", per)
	if per > ceiling {
		t.Errorf("%.3f allocations per spawned proc, ceiling %.2f", per, ceiling)
	}
}

// BenchmarkSpawn is spawnRound per op: 64 procs spawned, run and dropped.
func BenchmarkSpawn(b *testing.B) {
	e := NewEngine()
	spawnRound(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnRound(e)
	}
}
