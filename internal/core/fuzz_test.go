package core

import (
	"testing"

	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// fuzzConfig decodes bytes into a small machine description: at most 8
// kernels, 64 user PEs and 3 memory PEs — counts are signed, so zero and
// negative ones come up — and, each behind a bit of the flags byte, a
// batching policy, reliable mode on a lossless fabric and a fault plan whose
// kernel faults may name kernels the machine does not have and recoveries
// that precede their crash. Missing bytes read as zero, so every input
// decodes.
func fuzzConfig(data []byte) Config {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(int8(data[0]))
		data = data[1:]
		return b
	}
	cfg := Config{
		Kernels:  next() % 9,
		UserPEs:  next() % 65,
		MemPEs:   next() % 4,
		MemBytes: (next() % 4) << 12,
	}
	flags := next()
	cfg.RelaxLimits = flags&1 != 0
	if flags&8 != 0 {
		b := next()
		cfg.IKCBatching = IKCBatching{Exchange: b&1 != 0, ServiceQuery: b&2 != 0, Revoke: b&4 != 0}
	}
	if flags&16 != 0 {
		cfg.Faults = &fault.Plan{}
	}
	if flags&32 != 0 {
		plan := &fault.Plan{Seed: uint64(next()), Drop: float64(next()&0x7f) / 512, Dup: float64(next()&0x7f) / 512, Jitter: sim.Duration(next() & 0x3f)}
		for n := next() & 3; n > 0; n-- {
			plan.Kernels = append(plan.Kernels, fault.KernelFault{
				Kernel:  next() % 10,
				CrashAt: sim.Time(next()&0x7f) * 1000, RecoverAt: sim.Time(next()&0x7f) * 1000,
			})
		}
		cfg.Faults = plan
	}
	return cfg
}

// FuzzConfigValidate: Validate and NewSystem agree on every configuration —
// what Validate accepts boots, what it rejects is refused with an error —
// and neither panics. A machine that boots runs a client through a syscall
// and through whatever its fault plan schedules in the first 200k cycles,
// and Close unwinds every proc that leaves behind.
func FuzzConfigValidate(f *testing.F) {
	for _, seed := range [][]byte{
		nil,                     // all defaults, no user PE: rejected
		{1, 1},                  // the smallest machine
		{8, 64, 3, 1},           // the largest the decoder makes
		{0, 253, 255},           // negative counts
		{4, 16, 1, 0, 16},       // reliable on a lossless fabric
		{4, 16, 1, 0, 8, 7},     // every family batched
		{2, 8, 1, 0, 8 | 16, 7}, // batched and reliable
		{4, 16, 1, 0, 8 | 32, 7, 9, 20, 20, 30, 0},      // batched over a lossy, duplicating, jittery fabric
		{4, 16, 1, 0, 32, 7, 5, 5, 3, 1, 3, 20, 60},     // lossy, kernel 3 crashes and recovers
		{4, 16, 1, 0, 32, 7, 0, 0, 0, 1, 1, 40, 40},     // recovery at its crash: rejected
		{4, 16, 1, 0, 32, 7, 0, 0, 0, 1, 1, 0, 40},      // recovery without a crash: rejected
		{4, 16, 1, 0, 32, 7, 0, 0, 0, 2, 9, 5, 0, 0, 1}, // a kernel the machine lacks, kernel 0 crashed for good
		{8, 64, 2, 3, 1 | 8 | 16 | 32, 3, 9, 64, 64, 9, 1, 2, 5, 100},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := fuzzConfig(data)
		invalid := cfg.Validate()
		sys, err := NewSystem(cfg)
		if (invalid != nil) != (err != nil) {
			t.Fatalf("Validate says %v, NewSystem says %v, for %+v", invalid, err, cfg)
		}
		if err != nil {
			return
		}
		if _, err := sys.Spawn("probe", func(v *VPE, p *sim.Proc) {
			v.AllocMem(p, 64, dtu.PermRW)
			p.Park()
		}); err != nil {
			t.Fatalf("spawning on a fresh machine: %v (%+v)", err, cfg)
		}
		sys.RunFor(200_000)
		if sys.Eng.LiveProcs() == 0 {
			t.Errorf("no proc live with a client parked (%+v)", cfg)
		}
		sys.Close()
		if n := sys.Eng.LiveProcs(); n != 0 {
			t.Errorf("%d procs live after Close (%+v)", n, cfg)
		}
	})
}
