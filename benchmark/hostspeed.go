package main

import (
	"runtime"
	"sort"
	"time"
)

// Host speed. The benchmark runs on a few cores of a shared host whose speed
// drifts by tens of per cent over minutes (a neighbour on the sibling
// hyperthread, in the shared cache or on the memory bus): process CPU time
// moves with the wall clock, so it is the machine that slows, not the
// scheduler that takes the CPU away, and neither longer runs nor a median,
// a lower quartile or a minimum over a run's passes repeat from one run to
// the next (the README has the figures). What does repeat is a pass's time
// relative to a fixed piece of work timed right beside it. So a reference
// loop — Go runtime and standard library only, nothing of this repository,
// so no change to the simulator moves it — is timed before and after every
// set-up and every pass and between the parts of a pass that takes seconds,
// and every host time the benchmark reports is scaled, segment by segment,
// to the machine on which that loop takes refNominal:
//
//	reported = measured * refNominal / (reference loop, mean of before and after)
//
// The loop does what the simulator's hot path does, in roughly its
// proportions: two goroutines hand a value back and forth over channels (the
// proc switch), every hand-off allocates a small object, follows a dependent
// load through 4 MB (cache and memory-bus contention) and stores into a
// small map. Of the loops tried (arithmetic only, pointer chasing only,
// hand-offs and allocation only) it is the one whose time follows capstorm,
// which is bound by hand-offs, and apps, which is bound by memory, alike.

// refNominal is the reference loop's time on a quiet host of the kind the
// benchmark was sized on; at that speed reported and measured times agree.
const refNominal = 22 * time.Millisecond

const (
	refSlices   = 3
	refHandoffs = 12000 // per slice
	refWords    = 1 << 20
)

// refChain is one random cycle through refWords words: following it is a
// chain of dependent loads with no locality.
var refChain = func() []uint32 {
	r := newRNG(0x5e3e705)
	perm := make([]uint32, refWords)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	chain := make([]uint32, refWords)
	for i, p := range perm {
		chain[p] = perm[(i+1)%len(perm)]
	}
	return chain
}()

// refSink keeps the loop's results alive.
var refSink uint64

// referenceLoop times the reference work: the median of refSlices equal
// slices times their number, so that one interrupted slice does not count.
func referenceLoop() time.Duration {
	slices := make([]time.Duration, refSlices)
	for i := range slices {
		slices[i] = referenceSlice()
	}
	sort.Slice(slices, func(i, j int) bool { return slices[i] < slices[j] })
	return slices[refSlices/2] * refSlices
}

func referenceSlice() time.Duration {
	type msg [8]uint64
	start := time.Now()
	ping, pong := make(chan *msg, 1), make(chan *msg, 1)
	go func() {
		at := uint32(1)
		for m := range ping {
			at = refChain[at]
			pong <- &msg{m[0] + uint64(at)}
		}
		close(pong)
	}()
	m, at := &msg{}, uint32(0)
	seen := make(map[uint32]*msg, 256)
	for i := 0; i < refHandoffs; i++ {
		ping <- m
		m = <-pong
		at = refChain[at]
		seen[at&255] = m
	}
	close(ping)
	<-pong
	refSink += m[0] + uint64(len(seen))
	return time.Since(start)
}

// hostClock measures host time at the reference machine's speed. A
// measurement runs from start to stop and may be cut into segments by lap;
// each segment is scaled by the two readings of the reference loop around
// it, and the loop's own time stays out of the measurement. Readings are
// shared: the one that closes a segment opens the next. A nil *hostClock
// measures nothing, so a warm-up pass can run without one.
type hostClock struct {
	last     time.Duration // the latest reading of the reference loop
	segStart time.Time
	measured time.Duration // the segments as the wall clock saw them
	scaled   float64       // the same, in nanoseconds at reference speed
	// What the readings inside the measurement allocated: not the
	// workload's, so timedPass takes it off the pass's account.
	allocBytes, mallocs uint64
}

func newHostClock() *hostClock { return &hostClock{last: referenceLoop()} }

func (c *hostClock) start() {
	c.measured, c.scaled, c.allocBytes, c.mallocs = 0, 0, 0, 0
	c.segStart = time.Now()
}

// lap closes the current segment with a reading of the reference loop,
// recorded as a span under parent, and opens the next. A workload whose pass
// takes seconds calls it between its parts, because the host's speed moves
// within seconds.
func (c *hostClock) lap(t *tracer, parent int) {
	if c == nil {
		return
	}
	seg := time.Since(c.segStart)
	id := t.begin("harness.reference", parent)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	next := referenceLoop()
	runtime.ReadMemStats(&after)
	t.end(id)
	c.allocBytes += after.TotalAlloc - before.TotalAlloc
	c.mallocs += after.Mallocs - before.Mallocs
	c.measured += seg
	c.scaled += float64(seg) * 2 * float64(refNominal) / float64(c.last+next)
	c.last = next
	c.segStart = time.Now()
}

// stop closes the measurement and returns its time as measured and the
// factor that takes host times of this measurement to reference speed.
func (c *hostClock) stop() (time.Duration, float64) {
	c.lap(nil, -1)
	return c.measured, c.scaled / float64(c.measured)
}
