// Package fault is the deterministic fault-injection layer of the
// simulated machine. A Plan describes what goes wrong — message
// drop/duplication probabilities, delivery-delay jitter and kernel crash
// and recovery times — and an Injector draws every decision
// from a splittable counter-based PRNG keyed by (seed, src, dst, per-pair
// message counter). Because the NoC calls Inspect once per message in a
// deterministic order (the engine executes events in one total order, and
// -parallel parallelizes across independent simulations), a fixed seed
// yields a byte-identical faulty run regardless of host parallelism.
//
// Faults apply only to kernel↔kernel links (both endpoints below the
// kernel-PE bound): the inter-kernel protocol is the layer hardened
// against loss (core/ikc.go, core/transport.go). Syscall channels,
// service IPC and consent queries stay lossless, so a faulty run degrades
// — operations fail with error replies — but never wedges on an
// unhardened path.
package fault

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/sim"
)

// KernelFault schedules a crash of one kernel: from CrashAt on it blackholes
// all its inter-kernel traffic, both directions. With RecoverAt zero the
// crash is permanent; a nonzero RecoverAt ends the blackhole window, after
// which the kernel runs as a new incarnation (core schedules the rejoin
// handshake at RecoverAt, see core's rejoin protocol).
type KernelFault struct {
	Kernel int // kernel PE number
	// CrashAt is the crash time; 0 means the kernel never crashes.
	CrashAt sim.Time
	// RecoverAt, when nonzero, is the cycle at which the crashed kernel's
	// links un-blackhole. Must be strictly after CrashAt (Validate).
	RecoverAt sim.Time
}

// Plan is a complete fault scenario. The zero rates with no kernel faults
// make a plan that injects nothing (but still switches the IKC layer into
// reliable mode when attached via core.Config.Faults).
type Plan struct {
	// Seed keys the PRNG; identical plans with identical seeds produce
	// identical fault sequences. Seed 0 is valid and distinct from 1.
	Seed uint64
	// Drop is the per-message drop probability on kernel links.
	Drop float64
	// Dup is the per-message duplication probability.
	Dup float64
	// Jitter is the delay-jitter bound: each message is delayed by a
	// uniform draw from [0, Jitter).
	Jitter sim.Duration
	// Kernels schedules crashes and recoveries.
	Kernels []KernelFault
}

// planError is what Validate rejects a plan with.
type planError string

func (e planError) Error() string { return "fault: " + string(e) }

// Validate checks the plan's static well-formedness: every rate is a
// probability, and every recovery strictly follows its crash. A plan that
// fails either describes no scenario at all — a NaN or negative rate never
// fires, a recovery at or before its crash opens no window — and silently
// running it as "no faults" (or "never recovered") would make a scenario
// pass while testing nothing. Kernels are not checked against a machine:
// ones it lacks simply never match (NewInjector).
func (p *Plan) Validate() error {
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"Drop", p.Drop}, {"Dup", p.Dup}} {
		if !(r.v >= 0 && r.v <= 1) { // also catches NaN
			return planError(fmt.Sprintf("%s rate %v is not a probability", r.name, r.v))
		}
	}
	for _, kf := range p.Kernels {
		if kf.RecoverAt == 0 {
			continue
		}
		if kf.CrashAt == 0 {
			return planError(fmt.Sprintf("kernel %d has RecoverAt %d without a CrashAt", kf.Kernel, kf.RecoverAt))
		}
		if kf.RecoverAt <= kf.CrashAt {
			return planError(fmt.Sprintf("kernel %d RecoverAt %d must be after CrashAt %d", kf.Kernel, kf.RecoverAt, kf.CrashAt))
		}
	}
	return nil
}

// Stats counts what the injector did.
type Stats struct {
	Inspected  uint64 // kernel↔kernel messages examined
	Dropped    uint64 // probabilistic drops
	Duplicated uint64
	Delayed    uint64 // messages given nonzero jitter
	Blackholed uint64 // messages dropped because an endpoint had crashed
}

// splitmix64 is the finalizer of the SplitMix64 generator: a bijective
// avalanche hash, here used as a counter-based PRNG — hashing
// (seed, pair, counter, salt) gives an independent uniform draw per
// decision without any shared mutable generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Decision salts decorrelate the sub-draws of one message.
const (
	saltDrop uint64 = iota + 1
	saltDup
	saltJitter
)

// Injector implements noc.Injector for a Plan. Its PRNG counters advance
// per ordered (src, dst) kernel pair, so a pair's fault sequence does not
// depend on how the traffic of other pairs interleaves with it.
type Injector struct {
	plan      Plan
	kernelPEs int
	counters  []uint64 // at src*kernelPEs + dst
	stats     Stats
	kfaults   map[int][]KernelFault // read-only after NewInjector
}

// NewInjector compiles a plan against a machine whose kernel PEs are
// [0, kernelPEs). Kernel faults naming kernels outside that range simply
// never match.
func NewInjector(plan Plan, kernelPEs int) *Injector {
	in := &Injector{
		plan:      plan,
		kernelPEs: kernelPEs,
		counters:  make([]uint64, kernelPEs*kernelPEs),
		kfaults:   make(map[int][]KernelFault),
	}
	for _, kf := range plan.Kernels {
		in.kfaults[kf.Kernel] = append(in.kfaults[kf.Kernel], kf)
	}
	return in
}

// Stats returns what the injector did so far.
func (in *Injector) Stats() Stats { return in.stats }

// draw returns a uniform float64 in [0,1) for one decision of one message.
func (in *Injector) draw(src, dst int, ctr, salt uint64) float64 {
	h := splitmix64(splitmix64(splitmix64(in.plan.Seed^(uint64(src)<<32|uint64(uint32(dst))))+ctr) + salt)
	return float64(h>>11) / (1 << 53)
}

func (in *Injector) crashed(pe int, now sim.Time) bool {
	for _, kf := range in.kfaults[pe] {
		if kf.CrashAt > 0 && now >= kf.CrashAt && (kf.RecoverAt == 0 || now < kf.RecoverAt) {
			return true
		}
	}
	return false
}

// Inspect decides the fate of one message, called by the NoC at send time
// (noc.Injector). Out-of-scope messages — anything but kernel↔kernel —
// pass untouched and do not consume PRNG counters, so adding user PEs to
// a machine never shifts the fault sequence on the kernel links.
func (in *Injector) Inspect(now sim.Time, src, dst, size int) noc.Verdict {
	if src == dst || src >= in.kernelPEs || dst >= in.kernelPEs {
		return noc.Verdict{}
	}
	in.stats.Inspected++
	c := &in.counters[src*in.kernelPEs+dst]
	ctr := *c
	*c++
	// A crashed endpoint blackholes the link in both directions: messages
	// to a dead kernel vanish, and a dead kernel sends nothing (its
	// in-flight sends at crash time vanish too).
	if in.crashed(src, now) || in.crashed(dst, now) {
		in.stats.Blackholed++
		return noc.Verdict{Drop: true}
	}
	p := &in.plan
	var v noc.Verdict
	if p.Drop > 0 && in.draw(src, dst, ctr, saltDrop) < p.Drop {
		v.Drop = true
		in.stats.Dropped++
	}
	if !v.Drop && p.Dup > 0 && in.draw(src, dst, ctr, saltDup) < p.Dup {
		v.Dup = true
		in.stats.Duplicated++
	}
	if p.Jitter > 0 {
		if j := sim.Duration(in.draw(src, dst, ctr, saltJitter) * float64(p.Jitter)); j > 0 {
			v.Delay = j
			in.stats.Delayed++
		}
	}
	return v
}
