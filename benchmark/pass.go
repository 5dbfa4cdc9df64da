package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// opKind classifies a capability operation for the per-kind latency rows.
type opKind int

const (
	opObtainLocal opKind = iota
	opObtainSpan
	opDelegateLocal
	opDelegateSpan
	opDerive
	opRevoke
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"obtain_local", "obtain_span", "delegate_local", "delegate_span", "derive", "revoke",
}

// simStats holds the simulated statistics of one pass. They are exact: the
// first timed pass supplies the reported values and every later pass must
// reproduce Digest bit for bit.
type simStats struct {
	// CapOps is the number of capability operations the pass completed and
	// Makespan the simulated cycles they took (summed over the machines of
	// the pass); their ratio is Table 4's ops/s.
	CapOps   uint64
	Makespan uint64
	// Efficiency is Fig. 6's measure where the pass replays applications:
	// the share of its loaded run time an instance would need alone.
	Efficiency float64
	// ClientOps is the simulated latency of every client operation, the
	// population of sim_op_p50_cycles and sim_op_p99_cycles.
	ClientOps []uint64
	// ByKind splits the capability operations timed by the benchmark itself.
	ByKind [numOpKinds][]uint64
	// RevokeMachine is the latency of the scale workload's machine-wide
	// revoke.
	RevokeMachine uint64
	// PaperErrPct is the largest relative error against the paper's Table 3,
	// when the pass measures Table 3 itself.
	PaperErrPct float64
	Digest      string
}

// record files one timed capability operation.
func (s *simStats) record(kind opKind, start, end sim.Time) {
	lat := uint64(end - start)
	s.ByKind[kind] = append(s.ByKind[kind], lat)
	s.ClientOps = append(s.ClientOps, lat)
}

// layerCounts holds the counters of one pass that the layers expose through
// their public statistics. A field stays zero where the workload gives the
// benchmark no handle on it (the README says which).
type layerCounts struct {
	Events       uint64 // sim.Engine.Executed, summed over the pass's engines
	NocMsgs      uint64
	NocBytes     uint64
	NocLost      uint64
	FaultDropped uint64
	Kernel       core.KernelStats
	// BusyCapacity is kernels x makespan summed over the pass's machines,
	// the denominator of core.kernel_busy_share.
	BusyCapacity uint64
	TraceOps     uint64
	Tasks        int
	TaskTime     time.Duration
}

// addSystem reads the counters of a machine that has run dry; makespan is
// when its last client finished.
func (c *layerCounts) addSystem(sys *core.System, makespan sim.Time) {
	c.Events += sys.Eng.Executed()
	ns := sys.Net.Stats()
	c.NocMsgs += ns.Messages
	c.NocBytes += ns.Bytes
	c.NocLost += ns.Lost
	c.FaultDropped += sys.FaultStats().Dropped
	c.addKernel(sys.TotalStats())
	c.BusyCapacity += uint64(sys.Kernels()) * uint64(makespan)
}

// addKernel sums the kernel counters the benchmark reports.
func (c *layerCounts) addKernel(k core.KernelStats) {
	c.Kernel.Syscalls += k.Syscalls
	c.Kernel.IKCSent += k.IKCSent
	c.Kernel.IKCRepSent += k.IKCRepSent
	c.Kernel.IKCBatched += k.IKCBatched
	c.Kernel.IKCBatches += k.IKCBatches
	c.Kernel.Obtains += k.Obtains
	c.Kernel.Delegates += k.Delegates
	c.Kernel.Revokes += k.Revokes
	c.Kernel.Sessions += k.Sessions
	c.Kernel.CapsCreated += k.CapsCreated
	c.Kernel.CapsDeleted += k.CapsDeleted
	c.Kernel.Busy += k.Busy
	c.Kernel.Retransmits += k.Retransmits
	c.Kernel.DupSuppressed += k.DupSuppressed
}

// digest folds the simulated counters into d. Event counts stay out: how
// many events the engine needs is the simulator's business, not the
// machine's.
func (c *layerCounts) digest(d *digest) {
	k := c.Kernel
	d.u64(c.NocMsgs, c.NocBytes, c.NocLost, c.FaultDropped,
		k.Syscalls, k.IKCSent, k.IKCRepSent, k.IKCBatched, k.IKCBatches,
		k.Obtains, k.Delegates, k.Revokes, k.Sessions, k.CapsCreated, k.CapsDeleted,
		uint64(k.Busy), k.Retransmits, k.DupSuppressed)
}

// passResult is one complete execution of a workload's input.
type passResult struct {
	// Host measurements; they vary from pass to pass. Wall and the other
	// times are as measured; Speed scales them to the reference machine
	// (hostspeed.go).
	Wall       time.Duration
	Speed      float64
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint32
	GCPause    time.Duration

	// Attempted and Failed count client operations and audit findings;
	// Problems names the first few failures.
	Attempted int
	Failed    int
	Problems  []string

	Sim    simStats
	Counts layerCounts
}

// fail records n failures with one explanation.
func (r *passResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// heapReading is the heap in use after a forced collection, and how many
// capabilities stood at that moment where the workload can tell.
type heapReading struct {
	Bytes uint64
	Caps  uint64
}

// readHeap forces a collection and reads the heap in use.
func readHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// keptHeap reads the heap after a warm-up pass whose machines were torn down
// inside the layer the workload calls: what can be seen from outside is what
// the simulator keeps between runs. A first collection ages out what
// sync.Pools still hold.
func keptHeap() heapReading {
	runtime.GC()
	return heapReading{Bytes: readHeap()}
}

// workload is one of the benchmark's inputs. setup builds the input for a
// seed, runs one warm-up pass and leaves the workload ready for pass; it is
// called several times to measure set-up time, and every call starts from
// cold pools. The warm-up pass is also where the live heap is read, at the
// point where the most simulated state stands that the benchmark can
// observe: no timed pass carries the forced collection that takes. pass
// executes the input once, recording spans under parent when t is non-nil;
// a pass of several seconds laps host between its parts.
type workload interface {
	setup(seed uint64) (heapReading, error)
	pass(t *tracer, parent int, host *hostClock) passResult
}

// timedPass runs one pass of w and fills in the host measurements the
// workload cannot take itself.
func timedPass(w workload, t *tracer, clock *hostClock) passResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clock.start()
	root := t.begin("pass", -1)
	res := w.pass(t, root, clock)
	t.end(root)
	runtime.ReadMemStats(&after)
	// The readings between the pass's parts allocated inside it; the one
	// stop takes comes after the books are closed.
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc - clock.allocBytes
	res.Mallocs = after.Mallocs - before.Mallocs - clock.mallocs
	res.Wall, res.Speed = clock.stop()
	res.GCCycles = after.NumGC - before.NumGC
	res.GCPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return res
}
