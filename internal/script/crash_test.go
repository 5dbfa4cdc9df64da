package script

import (
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// delegatorCrash is a script that FuzzScript's decode makes of these bytes,
// on two kernels: VPE 3 (PE 7, kernel 1) delegates to VPE 0 (PE 4, kernel
// 0) while kernel 1 is down from 8 826 to 8 926.
var delegatorCrash = []byte{55, 182, 183, 147, 165, 120, 107, 61, 37, 197, 52, 103, 34, 172, 210, 64, 68, 205, 204, 115, 132, 213, 210, 124, 24}

// playCrash plays data on kernels kernels with kernel victim crashing at
// crash and recovering gap cycles later, and returns what the drained
// machine's audit finds.
func playCrash(data []byte, kernels int, pol core.IKCBatching, victim int, crash, gap sim.Time) []string {
	eng := sim.NewEngine()
	eng.SetEventLimit(1 << 22)
	plan := &fault.Plan{Kernels: []fault.KernelFault{{Kernel: victim, CrashAt: crash, RecoverAt: crash + gap}}}
	sys := core.MustNew(core.Config{Kernels: kernels, UserPEs: 6, IKCBatching: pol, Faults: plan, Engine: eng})
	defer sys.Close()
	Run(sys, decode(data, sys.UserPEs()), nil)
	return sys.Audit()
}

// playCrashStepped is playCrash run one instant at a time, with the
// machine's every-instant check (System.CheckInstant) after each. It returns
// the first instant at which the check found anything, and what it found
// then, and what the drained machine's audit finds.
func playCrashStepped(data []byte, kernels int, pol core.IKCBatching, victim int, crash, gap sim.Time) (at sim.Time, instant, audit []string) {
	eng := sim.NewEngine()
	eng.SetEventLimit(1 << 22)
	plan := &fault.Plan{Kernels: []fault.KernelFault{{Kernel: victim, CrashAt: crash, RecoverAt: crash + gap}}}
	sys := core.MustNew(core.Config{Kernels: kernels, UserPEs: 6, IKCBatching: pol, Faults: plan, Engine: eng})
	defer sys.Close()
	Start(sys, decode(data, sys.UserPEs()), nil)
	for t := sim.Time(0); sys.Eng.Pending() > 0; t++ {
		sys.Eng.RunUntil(t)
		if found := sys.CheckInstant(); instant == nil && len(found) > 0 {
			at, instant = t, found
		}
	}
	return at, instant, sys.Audit()
}

// TestCrashedDelegatorLeavesNoPendingDelegation: the receiver's kernel
// parks in the delegate handshake while the delegator's kernel crashes and
// rejoins. The handshake's call has aborted with ErrPeerDead, so the
// receiver must not create the pending delegation after the wake-up: nobody
// would ever acknowledge it. The every-instant check would name such an
// entry at the instant it is made, before the drained machine's audit finds
// it never acknowledged.
func TestCrashedDelegatorLeavesNoPendingDelegation(t *testing.T) {
	at, instant, audit := playCrashStepped(delegatorCrash, 2, core.IKCBatching{}, 1, 8826, 100)
	if len(instant) != 0 {
		t.Errorf("at %d:\n  %s", at, strings.Join(instant, "\n  "))
	}
	if len(audit) != 0 {
		t.Errorf("audit:\n  %s", strings.Join(audit, "\n  "))
	}
}

// crashGaps are the recovery gaps TestCrashPoints tries, all below the
// 60 000-cycle retransmit timeout: a recovery before the first retransmit
// is where the delegation leaks were. Longer gaps (up to and past the death
// verdict) make each run several times longer; FuzzScript draws them.
var crashGaps = []sim.Time{1, 1000, 20000}

// crashScripts is the reproducer's bytes and n-1 fixed random inputs of
// decode (math/rand seed 7, 20 to 59 bytes each).
func crashScripts(n int) [][]byte {
	rng := rand.New(rand.NewSource(7))
	scripts := [][]byte{delegatorCrash}
	for len(scripts) < n {
		b := make([]byte, 20+rng.Intn(40))
		rng.Read(b)
		scripts = append(scripts, b)
	}
	return scripts
}

// instants returns every distinct instant after 0 at which the clean run of
// data — reliable mode on a lossless fabric — executes an event.
func instants(data []byte, kernels int, pol core.IKCBatching) []sim.Time {
	sys := core.MustNew(core.Config{Kernels: kernels, UserPEs: 6, IKCBatching: pol, Faults: &fault.Plan{}})
	defer sys.Close()
	Start(sys, decode(data, sys.UserPEs()), nil)
	var at []sim.Time
	for t, done := sim.Time(0), uint64(0); sys.Eng.Pending() > 0; t++ {
		sys.Eng.RunUntil(t)
		if n := sys.Eng.Executed(); n != done {
			if t > 0 {
				at = append(at, t)
			}
			done = n
		}
	}
	return at
}

var crashAll = flag.Bool("crashpoints.all", false, "TestCrashPoints: all 48 scripts on 2 and 3 kernels, unbatched and batched (about 20 s on 2 CPUs)")

// TestCrashPoints crashes each kernel in turn at every distinct event
// instant of a script's clean run and recovers it after each of crashGaps,
// and audits every drained machine: a briefly crashed kernel leaves it
// quiescent and leak-free (DESIGN.md "Dead peers"). The engine is
// deterministic, so these are all the instants at which a crash can make a
// difference. By default it plays the reproducer's script on two kernels,
// unbatched (690 runs); -crashpoints.all plays 48 scripts on two and three
// kernels, unbatched and batched (177 333 runs), as CI does.
func TestCrashPoints(t *testing.T) {
	scripts, kernels, pols := crashScripts(48), []int{2, 3}, []core.IKCBatching{{}, {Exchange: true, Revoke: true}}
	if !*crashAll {
		scripts, kernels, pols = scripts[:1], kernels[:1], pols[:1]
	}
	for si, data := range scripts {
		t.Run(fmt.Sprint(si), func(t *testing.T) {
			t.Parallel()
			runs := 0
			for _, k := range kernels {
				for _, pol := range pols {
					for _, at := range instants(data, k, pol) {
						for victim := 0; victim < k; victim++ {
							for _, gap := range crashGaps {
								runs++
								if found := playCrash(data, k, pol, victim, at, gap); len(found) != 0 {
									t.Fatalf("script %v, %d kernels, %+v, kernel %d down from %d for %d:\n  %s",
										data, k, pol, victim, at, gap, strings.Join(found, "\n  "))
								}
							}
						}
					}
				}
			}
			t.Logf("%d crash runs", runs)
		})
	}
}

// TestDelegationPreparedAcrossRecovery: the receiver's kernel, crashed from
// 7 409, recovers at 8 086 while its thread settles the time of creating the
// prepared child. The rejoin has dropped the pending delegations, and the
// delegator's call aborts with ErrPeerDead when it admits the new
// incarnation, so the thread must not enter the child once its time has
// passed. FuzzScript found the script (testdata/fuzz/FuzzScript), on a
// fabric dropping and duplicating 1% of kernel messages.
func TestDelegationPreparedAcrossRecovery(t *testing.T) {
	eng := sim.NewEngine()
	eng.SetEventLimit(1 << 22)
	plan := &fault.Plan{Seed: 5414013574812186409, Drop: 0.01, Dup: 0.01, Jitter: 16,
		Kernels: []fault.KernelFault{{Kernel: 1, CrashAt: 7409, RecoverAt: 8086}}}
	sys := core.MustNew(core.Config{Kernels: 2, UserPEs: 6, Faults: plan, Engine: eng})
	defer sys.Close()
	Run(sys, decode([]byte("1010010\x80\x00\x00\x00X010O0001000z"), sys.UserPEs()), nil)
	if found := sys.Audit(); len(found) != 0 {
		t.Errorf("audit:\n  %s", strings.Join(found, "\n  "))
	}
}
