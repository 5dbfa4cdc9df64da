package fault

import (
	"errors"
	"math"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// fuzzRates are the probabilities the decoder picks from: legal ones, the
// two ends, and everything a careless caller can produce.
var fuzzRates = [...]float64{0, 0.01, 0.25, 1, 1.5, -0.1, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64}

// fuzzPlan decodes bytes into a plan for a 4-kernel machine: rates and
// jitter, and up to three kernel faults whose kernels run from -2 to 7 — so
// negative, duplicate and out-of-range ones come up — and whose recoveries
// may precede their crashes. Missing bytes read as zero, so every input
// decodes.
func fuzzPlan(data []byte) Plan {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	rate := func() float64 { return fuzzRates[next()%len(fuzzRates)] }
	p := Plan{Seed: uint64(next()), Drop: rate(), Dup: rate(), Jitter: sim.Duration(next()) * 40}
	for n := next() % 4; n > 0; n-- {
		p.Kernels = append(p.Kernels, KernelFault{
			Kernel:  next()%10 - 2,
			CrashAt: sim.Time(next()) * 100, RecoverAt: sim.Time(next()) * 100,
		})
	}
	return p
}

// FuzzPlanValidate: every plan Validate accepts compiles and drives — 1 000
// messages over the kernel links and across the plan's time windows — without
// a panic, decides every message the same way from the same state (two
// injectors from one plan agree verdict for verdict and counter for counter),
// never both drops and duplicates a message, and counts what it was shown.
// What Validate rejects, it rejects with a planError.
func FuzzPlanValidate(f *testing.F) {
	for _, seed := range [][]byte{
		nil,                        // the zero plan
		{7, 1, 2, 5},               // 1% drop, 25% dup, jitter 200
		{7, 3, 3},                  // everything dropped
		{7, 4},                     // a drop rate above 1: rejected
		{7, 0, 5},                  // a negative dup rate: rejected
		{7, 6},                     // NaN: rejected
		{7, 7},                     // an infinite drop rate: rejected
		{7, 8, 8, 255},             // the smallest nonzero rates, jitter 10 200
		{7, 1, 1, 0, 1, 3, 10, 40}, // kernel 1 crashes at 1000, recovers at 4000
		{7, 1, 1, 0, 1, 3, 40, 10}, // recovery before its crash: rejected
		{7, 1, 1, 0, 1, 3, 0, 10},  // recovery without a crash: rejected
		{7, 1, 1, 0, 3, 3, 5, 0, 3, 20, 30, 0, 1}, // kernel 1 twice, kernel -2
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		plan := fuzzPlan(data)
		if err := plan.Validate(); err != nil {
			var pe planError
			if !errors.As(err, &pe) {
				t.Fatalf("Validate rejects %+v with a %T, want a planError: %v", plan, err, err)
			}
			return
		}
		const kernels, msgs = 4, 1000
		a, b := NewInjector(plan, kernels), NewInjector(plan, kernels)
		var inScope uint64
		for i := 0; i < msgs; i++ {
			// Every pair of the 4 kernels and 2 user PEs, self-sends included,
			// at times that sweep the decoder's crash windows.
			now, src, dst := sim.Time(i)*40, i%6, i/6%6
			va, vb := a.Inspect(now, src, dst, 64), b.Inspect(now, src, dst, 64)
			if va != vb {
				t.Fatalf("message %d (%d→%d at %d): %+v vs %+v from one plan %+v", i, src, dst, now, va, vb, plan)
			}
			if va.Drop && va.Dup {
				t.Fatalf("message %d both dropped and duplicated by %+v", i, plan)
			}
			if src != dst && src < kernels && dst < kernels {
				inScope++
			} else if va != (noc.Verdict{}) {
				t.Fatalf("message %d (%d→%d) is not on a kernel link and got %+v", i, src, dst, va)
			}
		}
		if a.Stats() != b.Stats() || a.Stats().Inspected != inScope {
			t.Fatalf("stats %+v vs %+v, %d messages in scope (%+v)", a.Stats(), b.Stats(), inScope, plan)
		}
	})
}
