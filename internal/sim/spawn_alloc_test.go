package sim

import (
	"runtime/debug"
	"testing"
)

// TestSpawnAllocationCeiling pins what a proc costs the heap: spawned, run
// to its end and dropped by the Reset of a pooled engine, one proc makes
// 13.125 allocations. 11 are iter.Pull's coroutine (its closures and the
// runtime's goroutine record), which no proc can avoid; two are step bound
// once (stepFn) and the body handed to iter.Pull; the Proc record is an
// eighth of a block of procBlock. The ceiling is the measurement plus 3.6%.
func TestSpawnAllocationCeiling(t *testing.T) {
	const procs, ceiling = 64, 13.6
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	e := NewEngine()
	body := func(p *Proc) { p.Sleep(1) }
	run := func() {
		for i := 0; i < procs; i++ {
			e.SpawnLazy(nil, i, body)
		}
		e.Run()
		e.Reset()
	}
	run() // grow the engine's queues and registry
	per := testing.AllocsPerRun(20, run) / procs
	t.Logf("%.3f allocations per proc", per)
	if per > ceiling {
		t.Errorf("%.3f allocations per spawned proc, ceiling %.1f", per, ceiling)
	}
}
