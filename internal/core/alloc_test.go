package core

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/sim"
)

// stepVPE spawns a VPE on pe that runs op once per call of the returned
// step function and parks in between, so step is one warmed operation
// pushed through a quiescent machine.
func stepVPE(tb testing.TB, s *System, pe int, op func(v *VPE, p *sim.Proc)) (step func()) {
	tb.Helper()
	start := sim.NewQueue[struct{}]()
	if _, err := s.SpawnOn(pe, "stepper", func(v *VPE, p *sim.Proc) {
		for {
			start.Pop(p)
			op(v, p)
		}
	}); err != nil {
		tb.Fatal(err)
	}
	s.Run() // boot, then park
	return func() {
		start.Push(struct{}{})
		s.Run()
	}
}

// TestTotalStatsSumsEveryField: TotalStats sums each KernelStats field
// across the kernels and allocates nothing. Every field gets a value distinct
// per field and kernel, so a field summed into the wrong total, or not at
// all, shows; a field that is not an unsigned integer fails here first.
func TestTotalStatsSumsEveryField(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 2})
	defer s.Close()
	for ki, k := range s.kernels {
		st := reflect.ValueOf(&k.stats).Elem()
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			switch f.Kind() {
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			default:
				t.Fatalf("KernelStats.%s is a %s, not an unsigned integer", st.Type().Field(i).Name, f.Kind())
			}
			f.SetUint(uint64(i+1) << (20 * ki))
		}
	}
	total := s.TotalStats()
	tv := reflect.ValueOf(total)
	for i := 0; i < tv.NumField(); i++ {
		if got, want := tv.Field(i).Uint(), uint64(i+1)+uint64(i+1)<<20; got != want {
			t.Errorf("TotalStats().%s = %#x, want %#x", tv.Type().Field(i).Name, got, want)
		}
	}
	if allocs := allocsPerRun(100, func() { total = s.TotalStats() }); allocs != 0 {
		t.Errorf("TotalStats allocates %v times, want 0", allocs)
	}
}

// noopStepper is one no-op syscall per step on a one-kernel machine.
func noopStepper(tb testing.TB) (*System, func()) {
	s := MustNew(Config{Kernels: 1, UserPEs: 1})
	return s, stepVPE(tb, s, s.UserPEs()[0], func(v *VPE, p *sim.Proc) { v.Noop(p) })
}

// TestNoopSyscallAllocatesNothing: a warmed syscall round trip — VPE.syscall,
// DTU send, NoC, kernel pool thread, handler, reply, ack — allocates
// nothing: the messages are recycled, the kernel thread takes a typed job,
// and request and reply live in the VPE.
func TestNoopSyscallAllocatesNothing(t *testing.T) {
	s, step := noopStepper(t)
	defer s.Close()
	step()
	if allocs := allocsPerRun(200, step); allocs != 0 {
		t.Fatalf("no-op syscall allocates %v times, want 0", allocs)
	}
}

// BenchmarkNoopSyscall is the bare syscall path; 0 allocs/op
// (TestNoopSyscallAllocatesNothing pins it).
func BenchmarkNoopSyscall(b *testing.B) {
	s, step := noopStepper(b)
	defer s.Close()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// deriveStepper is one local DeriveMem per step on a one-kernel machine; the
// first step allocates the root, and the children accumulate under it.
func deriveStepper(tb testing.TB) (*System, func()) {
	s := MustNew(Config{Kernels: 1, UserPEs: 1})
	root := cap.NoSel
	return s, stepVPE(tb, s, s.UserPEs()[0], func(v *VPE, p *sim.Proc) {
		var err error
		if root == cap.NoSel {
			root, err = v.AllocMem(p, 1<<20, dtu.PermRW)
		} else {
			_, err = v.DeriveMem(p, root, 0, 4096, dtu.PermR)
		}
		if err != nil {
			tb.Error(err)
		}
	})
}

// warmRuntime runs one garbage collection, the first time any pin of this
// file measures in the process. Allocations are counted process-wide
// (runtime.MemStats.Mallocs), and the process's first collection starts the
// runtime's mark workers, which allocate: come due inside a measured window,
// it reads as the code's own (under -race it fell into a measured tree
// revoke in about one fresh run in fifteen).
var warmRuntime = sync.OnceFunc(runtime.GC)

// mallocs is the number of heap allocations made while f runs, after
// warmRuntime and with the collector off: a collection wakes the runtime's
// background scavenger, whose sleep can grow a P's timer heap
// (runtime.(*timers).addHeap, from bgscavenge), one malloc that is not the
// code's (TestTreeRevokeAllocationCeiling). The caller pins GOMAXPROCS to 1
// for the measurement, as testing.AllocsPerRun does, or the runtime's
// background work on other Ps is counted too.
func mallocs(f func()) uint64 {
	warmRuntime()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// windowProfile samples the allocations of measured windows: every
// allocation inside one goes into the runtime's heap profile
// (runtime.MemProfileRate 1), none outside does, and sampled sorts what the
// windows allocated by stack, so that a ceiling counts the code's own
// allocations and a failed one names them. The runtime's background work
// allocates in a window now and then, at a timing no rerun repeats: the
// scavenger's sleep growing a P's timer heap (runtime.(*timers).addHeap,
// from bgscavenge) fell into the tree revoke's in about one fresh
// race-detector process in four.
type windowProfile struct {
	rate int
	base map[[32]uintptr]int64
}

func profileWindows() *windowProfile {
	w := &windowProfile{rate: runtime.MemProfileRate}
	runtime.MemProfileRate = 0
	w.base = allocSites()
	return w
}

// mallocs is mallocs(f), with every allocation of f sampled.
func (w *windowProfile) mallocs(f func()) uint64 {
	runtime.MemProfileRate = 1
	n := mallocs(f)
	runtime.MemProfileRate = 0
	// The first allocation after a change of rate is sampled: this one,
	// which stacks skips with allocSites' own.
	rateChanged = new([64]byte)
	return n
}

var rateChanged *[64]byte

func (w *windowProfile) stop() { runtime.MemProfileRate = w.rate }

// sampled counts the allocations the windows made at a stack with a frame
// of this module, the code's, and lists those stacks in own; the stacks
// with runtime frames only, not counted, are listed in background.
func (w *windowProfile) sampled() (n int64, own, background string) {
	var code, rt strings.Builder
	for stk, count := range allocSites() {
		if count -= w.base[stk]; count <= 0 {
			continue
		}
		frames := runtime.CallersFrames(stk[:])
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*windowProfile).mallocs") || strings.HasSuffix(f.Function, ".allocSites") {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%d allocation(s):\n", count)
		mine := false
		for ; ; f, more = frames.Next() {
			mine = mine || strings.HasPrefix(f.Function, "repro/")
			fmt.Fprintf(&b, "\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
			if !more {
				break
			}
		}
		if mine {
			n += count
			code.WriteString(b.String())
		} else {
			rt.WriteString(b.String())
		}
	}
	return n, code.String(), rt.String()
}

// allocSites is the process's count of sampled allocations per stack. An
// allocation shows in the profile once two collections have ended after it,
// so it collects twice first.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(recs, true)
	sites := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}

// allocsPerRun is testing.AllocsPerRun after warmRuntime, with the
// collector off as in mallocs.
func allocsPerRun(runs int, f func()) float64 {
	warmRuntime()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// awaitFinalizer collects until the finalizer that closes collected has
// run, or fails the test after a bounded number of collections. It yields
// between them, for the runtime's finalizer goroutine to run, and arms no
// timer, which would stay in the runtime's timer heap after the test and
// could grow it inside a later pin's window.
func awaitFinalizer(t *testing.T, collected <-chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
			runtime.Gosched()
		}
	}
	t.Fatal(what)
}

// BenchmarkDeriveSyscall is one local DeriveMem per op: the syscall round
// trip of BenchmarkNoopSyscall plus a five-term CPU-held stretch in the
// kernel (dispatch, lookup, link, create, reply) that the thread charges and
// settles once (TestOperationEventsAndResumes pins the switch count). The
// table growth is part of the op (TestDeriveAllocationCeiling pins the
// allocations).
func BenchmarkDeriveSyscall(b *testing.B) {
	s, step := deriveStepper(b)
	defer s.Close()
	step()
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestDeriveAllocationCeiling bounds what a warmed local derive allocates:
// its memory object is a slot in the machine's current block
// (System.newMemObject), 1/64 of a malloc, and the capability is copied
// into the store's slab; the rest is the amortized growth of the slabs, the
// key map and the selector space under the one root. The warm-up ends on a
// block boundary, so the 640 derives take exactly ten blocks, and the
// measured 32 mallocs are those plus 22 growth steps. A derive allocated a
// whole object of its own, 1 per op, before objects came in blocks. The
// ceiling is the measured average, with and without the race detector.
func TestDeriveAllocationCeiling(t *testing.T) {
	const ceiling, runs = 0.05, 10 * memObjBlock
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, step := deriveStepper(t)
	defer s.Close()
	for i := 0; i < 2*memObjBlock; i++ { // the root and 127 children
		step()
	}
	total := mallocs(func() {
		for i := 0; i < runs; i++ {
			step()
		}
	})
	if allocs := float64(total) / runs; allocs > ceiling {
		t.Fatalf("a warmed local derive allocates %v times, ceiling %v", allocs, ceiling)
	}
	checkAudit(t, s)
}

// TestMemObjectsAcrossChunks: the memory objects of both kernels of a
// machine come out of one block sequence (System.newMemObject), and a slot
// is never shared by two objects. VPEs on the two kernels take turns over
// 3×64+1 derives, each of a region no other derive has, which fills three
// blocks and opens a fourth. Every child holds its own region, no two
// separately minted capabilities share an object, and an obtained
// capability shares its parent's object by design. After the revoke of one
// VPE's root, a collection and more derives, an endpoint activated from a
// surviving capability still reaches exactly its own region.
func TestMemObjectsAcrossChunks(t *testing.T) {
	const derives = 3*memObjBlock + 1
	s := newTestSystem(t, 2, 2)
	pes := s.UserPEs()
	var job func(v *VPE, p *sim.Proc)
	var ids [2]int
	var steps [2]func()
	for i, pe := range pes {
		steps[i] = stepVPE(t, s, pe, func(v *VPE, p *sim.Proc) {
			ids[i] = v.ID
			job(v, p)
		})
	}
	run := func(i int, f func(v *VPE, p *sim.Proc) error) {
		t.Helper()
		job = func(v *VPE, p *sim.Proc) {
			if err := f(v, p); err != nil {
				t.Errorf("VPE %d: %v", v.ID, err)
			}
		}
		steps[i]()
		if t.Failed() {
			t.FailNow()
		}
	}
	lookup := func(i int, sel cap.Selector) *cap.Capability {
		c := s.KernelOfPE(pes[i]).store.LookupSel(ids[i], sel)
		if c == nil {
			t.Fatalf("VPE %d has no capability at selector %d", ids[i], sel)
		}
		return c
	}
	memObj := func(i int, sel cap.Selector) *cap.MemObject { return lookup(i, sel).Object.(*cap.MemObject) }

	var roots [2]cap.Selector
	for i := range roots {
		run(i, func(v *VPE, p *sim.Proc) (err error) {
			roots[i], err = v.AllocMem(p, 1<<20, dtu.PermRW)
			return err
		})
	}
	type child struct {
		vpe       int
		sel       cap.Selector
		off, size uint64
	}
	derive := func(i, n int) child {
		c := child{vpe: i, off: uint64(n) * 1024, size: 64 + uint64(n)}
		run(i, func(v *VPE, p *sim.Proc) (err error) {
			c.sel, err = v.DeriveMem(p, roots[i], c.off, c.size, dtu.PermR)
			return err
		})
		return c
	}
	var children []child
	for n := 0; n < derives; n++ {
		children = append(children, derive(n%2, n))
	}
	check := func(cs []child) {
		t.Helper()
		for _, c := range cs {
			root := memObj(c.vpe, roots[c.vpe])
			want := cap.MemObject{PE: root.PE, Off: root.Off + c.off, Size: c.size, Perm: dtu.PermR}
			if got := *memObj(c.vpe, c.sel); got != want {
				t.Fatalf("child at offset %d holds %+v, want %+v", c.off, got, want)
			}
		}
	}
	check(children)
	owners := make(map[*cap.MemObject]ddl.Key)
	for _, k := range s.kernels {
		for _, key := range k.store.Keys() {
			if mo, ok := k.store.Lookup(key).Object.(*cap.MemObject); ok {
				if prev, dup := owners[mo]; dup {
					t.Fatalf("capabilities %v and %v share one object", prev, key)
				}
				owners[mo] = key
			}
		}
	}

	// A spanning obtain: the child on kernel 1 shares its parent's object.
	parent := children[0]
	var obtained cap.Selector
	run(1, func(v *VPE, p *sim.Proc) (err error) {
		obtained, err = v.ObtainFrom(p, ids[0], parent.sel)
		return err
	})
	if got, want := lookup(1, obtained), lookup(0, parent.sel); got.Object != want.Object || got.Parent != want.Key {
		t.Fatalf("obtained capability holds object %p under parent %v, want %p under %v",
			got.Object, got.Parent, want.Object, want.Key)
	}

	// Revoke VPE 0's tree, collect, and mint a block's worth more on kernel 1.
	run(0, func(v *VPE, p *sim.Proc) error { return v.Revoke(p, roots[0]) })
	runtime.GC()
	var survivors []child
	for _, c := range children {
		if c.vpe == 1 {
			survivors = append(survivors, c)
		}
	}
	for n := derives; n < derives+memObjBlock; n++ {
		survivors = append(survivors, derive(1, n))
	}
	check(survivors)
	if got, want := MemCapsEverywhere(s), 1+len(survivors); got != want {
		t.Fatalf("%d memory capabilities left, want %d", got, want)
	}

	// The first surviving child's endpoint reaches its root's region at its
	// offset, and not a byte past its size.
	c := survivors[0]
	run(1, func(v *VPE, p *sim.Proc) error {
		if err := v.Activate(p, roots[1], vpeFirstMemEP); err != nil {
			return err
		}
		if err := v.Activate(p, c.sel, vpeFirstMemEP+1); err != nil {
			return err
		}
		rootPE, rootOff, _ := v.DTU().MemWindow(vpeFirstMemEP)
		if pe, off, size := v.DTU().MemWindow(vpeFirstMemEP + 1); pe != rootPE || off != rootOff+c.off || size != c.size {
			t.Errorf("child endpoint reaches PE %d at %d, %d bytes; want PE %d at %d, %d bytes",
				pe, off, size, rootPE, rootOff+c.off, c.size)
		}
		if err := v.Access(p, vpeFirstMemEP+1, 0, c.size, dtu.PermR); err != nil {
			return err
		}
		if err := v.Access(p, vpeFirstMemEP+1, 0, c.size+1, dtu.PermR); err == nil {
			t.Errorf("child endpoint reads past its %d bytes", c.size)
		}
		return nil
	})
	checkAudit(t, s)
}

// TestObtainAllocationCeilings bounds what an obtain still allocates, so
// the message path cannot quietly grow back: nothing. Local: the consent
// query rides a recycled record (TestKernelQueriesAllocateNothing) and the
// child capability is copied into the store's slab. Spanning: the request
// is a recycled record (Kernel.request), the reply travels by value into
// the slot of the thread parked on it, and the in-flight record is two
// words of the requesting VPE. Reliable: the spanning obtain on a lossless
// fabric with the reliable layer on — its transmission record is recycled
// and is its own timer event, and the reply cache is a ring of values behind
// a seq → slot map. Reliable-batched: the same with exchange batching, whose
// envelope buffer moves between the queue and the record. Table growth
// (slabs, key map, selector space, the reply cache up to its bound) averages
// below one per obtain. The ceilings are the measured counts, with and
// without the race detector.
func TestObtainAllocationCeilings(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"local", Config{Kernels: 1, UserPEs: 2}, 0},
		{"spanning", Config{Kernels: 2, UserPEs: 4}, 0},
		{"reliable", Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{}}, 0},
		{"reliable-batched", reliableBatched, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, step := obtainStepper(t, tc.cfg)
			defer s.Close()
			for i := 0; i < 8; i++ {
				step()
			}
			if allocs := allocsPerRun(100, step); allocs > tc.ceiling {
				t.Fatalf("%s obtain allocates %v times, ceiling %v", tc.name, allocs, tc.ceiling)
			}
			checkAudit(t, s)
		})
	}
}

// reliableBatched is a two-kernel machine in reliable mode on a lossless
// fabric, batching exchanges: every obtain rides an envelope.
var reliableBatched = Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{}, IKCBatching: IKCBatching{Exchange: true}}

// obtainStepper is one ObtainFrom per step, by the last user PE's VPE, of a
// memory capability the first user PE's VPE allocated: in place on a
// one-kernel machine, across kernels on a larger one.
func obtainStepper(tb testing.TB, cfg Config) (*System, func()) {
	s := MustNew(cfg)
	pes := s.UserPEs()
	var root cap.Selector
	owner, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			tb.Error(err)
		}
		root = sel
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s, stepVPE(tb, s, pes[len(pes)-1], func(v *VPE, p *sim.Proc) {
		if _, err := v.ObtainFrom(p, owner.ID, root); err != nil {
			tb.Error(err)
		}
	})
}

// BenchmarkSpanningObtain is one warmed obtain across two kernels per op:
// the syscall, one inter-kernel round trip with the owner's consent query
// in the middle, and the child's insertion. 0 allocs/op
// (TestObtainAllocationCeilings pins it).
func BenchmarkSpanningObtain(b *testing.B) {
	benchmarkObtain(b, Config{Kernels: 2, UserPEs: 4})
}

// BenchmarkSpanningObtainReliable is the same obtain in reliable mode with
// exchange batching (reliableBatched): the request rides an envelope that is
// tracked for retransmission. 0 allocs/op (TestObtainAllocationCeilings
// pins it).
func BenchmarkSpanningObtainReliable(b *testing.B) {
	benchmarkObtain(b, reliableBatched)
}

// benchmarkObtain runs obtainStepper's warmed obtain once per op on a machine
// built from cfg.
func benchmarkObtain(b *testing.B, cfg Config) {
	s, step := obtainStepper(b, cfg)
	defer s.Close()
	for i := 0; i < 8; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestSpanningDelegateAllocationCeiling bounds what a warmed delegate
// across two kernels allocates: the child the receiver's kernel prepares,
// which waits for the ack in its pending-delegation table (prepareDelegate)
// before the store copies it into its slab. The delegate is two
// inter-kernel calls — the delegate, with the receiver's consent query in
// the middle, and the ack that inserts the prepared child — and neither
// request is in the count: both are recycled records. The children
// accumulate under the one root; that growth averages below one per
// delegate. The ceiling is the measured count, with and without the race
// detector.
func TestSpanningDelegateAllocationCeiling(t *testing.T) {
	const ceiling = 1
	s, step := delegateStepper(t)
	defer s.Close()
	for i := 0; i < 8; i++ {
		step()
	}
	if allocs := allocsPerRun(100, step); allocs > ceiling {
		t.Fatalf("a spanning delegate allocates %v times, ceiling %v", allocs, ceiling)
	}
	checkAudit(t, s)
}

// delegateStepper is one DelegateTo per step, by the first user PE's VPE on
// a two-kernel machine, of a memory capability it allocated on its first
// step to the last user PE's VPE, on the other kernel.
func delegateStepper(tb testing.TB) (*System, func()) {
	s := MustNew(Config{Kernels: 2, UserPEs: 4})
	pes := s.UserPEs()
	recv, err := s.SpawnOn(pes[len(pes)-1], "receiver", func(v *VPE, p *sim.Proc) {})
	if err != nil {
		tb.Fatal(err)
	}
	root := cap.NoSel
	return s, stepVPE(tb, s, pes[0], func(v *VPE, p *sim.Proc) {
		var err error
		if root == cap.NoSel {
			root, err = v.AllocMem(p, 4096, dtu.PermRW)
		}
		if err == nil {
			_, err = v.DelegateTo(p, recv.ID, root)
		}
		if err != nil {
			tb.Error(err)
		}
	})
}

// BenchmarkSpanningDelegate is one warmed delegate across two kernels per
// op: the syscall, the delegate round trip with the receiver's consent query
// in the middle, and the ack round trip. 1 alloc/op, the prepared child
// (TestSpanningDelegateAllocationCeiling pins it).
func BenchmarkSpanningDelegate(b *testing.B) {
	s, step := delegateStepper(b)
	defer s.Close()
	for i := 0; i < 8; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestKernelQueriesAllocateNothing: the two questions a kernel thread parks
// on inside a syscall — the consent query to an exchange partner (askVPE)
// and the policy query to a service (queryService) — ride a recycled query
// record that is its own event on every leg, so a warmed round trip adds
// nothing to its syscall. Both operations are refused, which ends the
// syscall right after the query: whatever is measured is the query's. The
// data-plane call into the same service loop is held to the same standard.
func TestKernelQueriesAllocateNothing(t *testing.T) {
	s := MustNew(Config{Kernels: 1, UserPEs: 3})
	defer s.Close()
	pes := s.UserPEs()
	var root cap.Selector
	owner, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
		v.OnExchange = func(ExchangeQuery) ExchangeAnswer { return ExchangeAnswer{} }
		sel, err := v.AllocMem(p, 4096, dtu.PermRW)
		if err != nil {
			t.Error(err)
		}
		root = sel
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SpawnOn(pes[1], "svc", func(v *VPE, p *sim.Proc) {
		if err := v.RegisterService(p, "svc", &svcFuncs{
			open:    func(*sim.Proc, int, any) SvcResult { return SvcResult{Ident: 1} },
			obtain:  func(*sim.Proc, uint64, any) SvcResult { return SvcResult{Errno: ErrDenied} },
			request: func(_ *sim.Proc, _ uint64, args any) any { return args },
		}); err != nil {
			t.Error(err)
		}
		v.ServeLoop(p)
	}); err != nil {
		t.Fatal(err)
	}
	var sess *Session
	arg := new(int)
	op := 0
	step := stepVPE(t, s, pes[2], func(v *VPE, p *sim.Proc) {
		switch op {
		case 0:
			var err error
			if sess, err = v.CreateSession(p, "svc", nil); err != nil {
				t.Error(err)
			}
		case 1:
			if _, err := v.ObtainFrom(p, owner.ID, root); err != ErrDenied {
				t.Errorf("refused obtain returned %v", err)
			}
		case 2:
			if _, _, err := sess.Obtain(p, arg); err != ErrDenied {
				t.Errorf("refused session obtain returned %v", err)
			}
		case 3:
			if rep, err := sess.Call(p, arg); err != nil || rep != any(arg) {
				t.Errorf("call returned %v, %v", rep, err)
			}
		}
	})
	step()
	for op = 1; op <= 3; op++ {
		step()
		if allocs := allocsPerRun(200, step); allocs != 0 {
			t.Errorf("operation %d allocates %v times, want 0", op, allocs)
		}
	}
	if q := &s.kernels[0].queries; q.Idle() != 1 || q.Held() != 0 {
		t.Errorf("%d query records released and %d held, want the one that was reused throughout, released", q.Idle(), q.Held())
	}
}

// TestReplyEnvelopeFlushAllocatesNothing: once warm, flushing a reply
// envelope — its compose delay, the NoC and its arrival, which completes (here:
// counts as late) each reply in order — allocates nothing. The replies ride a
// recycled ikcWire that keeps its grown payload slice, where a vectored DTU
// send took a slice of items and a closure per envelope.
func TestReplyEnvelopeFlushAllocatesNothing(t *testing.T) {
	s := MustNew(Config{Kernels: 2, UserPEs: 2, IKCBatching: IKCBatching{Exchange: true}})
	defer s.Close()
	k := s.kernels[1]
	reps := make([]ikcReply, 4)
	flush := func() {
		for i := range reps {
			k.enqueueReply(0, classExchange, reps[i])
		}
		k.flushReplies(0, classExchange)
		s.Run()
	}
	flush()
	if allocs := allocsPerRun(100, flush); allocs != 0 {
		t.Fatalf("flushing a 4-reply envelope allocates %v times, want 0", allocs)
	}
	if got, want := s.kernels[0].Stats().LateReplies, k.Stats().IKCRepBatched; got != want || k.Stats().IKCRepBatches == 0 {
		t.Fatalf("%d replies arrived, %d were sent in %d envelopes", got, want, k.Stats().IKCRepBatches)
	}
}

// TestPooledEngineRetainsNoMessages: the message free list lives and dies
// with its Fabric. After System.Close and Pool.Put the pooled engine — its
// event slabs, lanes and proc table — must not reach the machine it last
// ran, or every recycled engine would pin a dead machine's messages. The
// witness is the payload of a message left parked in an endpoint of that
// machine: it is collected only if the whole Fabric is. (The finalizer
// cannot sit on the Fabric itself: Fabric and DTUs point at each other, and
// the runtime does not finalize a block that is part of a cycle.)
func TestPooledEngineRetainsNoMessages(t *testing.T) {
	pool := sim.NewPool()
	collected := make(chan struct{})
	eng := pool.Get()
	func() {
		s := MustNew(Config{Kernels: 2, UserPEs: 4, Engine: eng})
		pes := s.UserPEs()
		ready := sim.NewFuture[cap.Selector](s.Eng)
		owner, err := s.SpawnOn(pes[0], "owner", func(v *VPE, p *sim.Proc) {
			sel, err := v.AllocMem(p, 4096, dtu.PermRW)
			if err != nil {
				t.Error(err)
			}
			ready.Complete(sel)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, pe := range pes[1:] {
			if _, err := s.SpawnOn(pe, "client", func(v *VPE, p *sim.Proc) {
				if _, err := v.ObtainFrom(p, owner.ID, ready.Wait(p)); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		witness := new([64]byte)
		runtime.SetFinalizer(witness, func(*[64]byte) { close(collected) })
		kd, a, b := s.kernels[0].dtu, s.Fab.DTU(pes[0]), s.Fab.DTU(pes[1])
		must(b.ConfigureRecv(kd, vpeLastMemEP, 2, nil))
		must(a.ConfigureSend(kd, vpeLastMemEP, pes[1], vpeLastMemEP, 1, 0))
		must(a.Send(vpeLastMemEP, witness, 64, -1, 0))
		s.Run()
		if got := s.TotalStats().Obtains; got != 3 {
			t.Fatalf("%d obtains completed, want 3", got)
		}
		if b.Stats().Received < 2 { // a syscall reply and the witness
			t.Fatal("the witness message was not delivered")
		}
		s.Close()
		pool.Put(eng)
	}()
	if pool.Get() != eng {
		t.Fatal("Put did not shelve the engine")
	}
	pool.Put(eng)
	awaitFinalizer(t, collected, "a message of a closed machine is still reachable from its pooled engine")
}

// TestTreeRevokeAllocationCeiling bounds what a warmed local tree revoke
// allocates: nothing. The revocation's records, their marked-key lists and
// the stack its mark walk snapshots child lists onto come from the kernel's
// free list, and the syscall thread parks on its record. It counts the
// allocations the heap profile samples at a stack of this module's code: a
// runtime-only stack in a window (the background scavenger's timer, which
// the collector being off makes rarer but did not rule out) is reported,
// not counted.
func TestTreeRevokeAllocationCeiling(t *testing.T) {
	const ceiling = 0
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := MustNew(Config{Kernels: 1, UserPEs: 1})
	defer s.Close()
	var root, mid cap.Selector
	plant := true
	step := stepVPE(t, s, s.UserPEs()[0], func(v *VPE, p *sim.Proc) {
		var err error
		switch {
		case root == cap.NoSel:
			root, err = v.AllocMem(p, 1<<20, dtu.PermRW)
		case plant: // mid, three children, two grandchildren each
			mid, err = v.DeriveMem(p, root, 0, 64<<10, dtu.PermRW)
			for i := uint64(0); i < 3 && err == nil; i++ {
				var child cap.Selector
				child, err = v.DeriveMem(p, mid, i*8192, 8192, dtu.PermRW)
				for j := uint64(0); j < 2 && err == nil; j++ {
					_, err = v.DeriveMem(p, child, j*4096, 4096, dtu.PermR)
				}
			}
		default:
			err = v.Revoke(p, mid)
		}
		if err != nil {
			t.Error(err)
		}
	})
	step()
	round := func(measure func(func()) uint64) uint64 {
		plant = true
		step()
		plant = false
		return measure(step)
	}
	for i := 0; i < 8; i++ {
		round(mallocs)
	}
	prof := profileWindows()
	defer prof.stop()
	const rounds = 50
	var total uint64
	for i := 0; i < rounds; i++ {
		total += round(prof.mallocs)
	}
	n, own, background := prof.sampled()
	if background != "" {
		t.Logf("%d allocation(s) in all, the runtime's not counted:\n%s", total, background)
	}
	if allocs := float64(n) / rounds; allocs > ceiling {
		t.Fatalf("revoking a warmed 10-capability local tree allocates %v times, want %v; the windows allocated at:\n%s",
			allocs, ceiling, own)
	}
	if got := s.kernels[0].store.Len(); got != 2 { // the VPE's own capability and root
		t.Fatalf("%d capabilities left, want 2", got)
	}
	checkAudit(t, s)
}

// TestSpanningRevokeAllocationCeiling bounds a warmed revoke whose root has
// one child on the other kernel: nothing. The forward's request is a
// recycled record, its continuation — the record it counts toward and the
// request — is data in the pending table, and its reply travels by value.
// The ceiling is the measured count, with and without the race detector.
func TestSpanningRevokeAllocationCeiling(t *testing.T) {
	const ceiling = 0
	if allocs := spanningRevokeMallocs(t, Config{Kernels: 2, UserPEs: 4}); allocs > ceiling {
		t.Fatalf("revoking a warmed root with one remote child allocates %v times, ceiling %v", allocs, ceiling)
	}
}

// TestBatchedSpanningRevokeAllocationCeiling is the same revoke with batched
// revocation: the forward is a batch of one, so what is left is the key
// list it carries (forwardBatches). The ceiling is the measured count, with
// and without the race detector.
func TestBatchedSpanningRevokeAllocationCeiling(t *testing.T) {
	const ceiling = 1
	cfg := Config{Kernels: 2, UserPEs: 4, IKCBatching: IKCBatching{Revoke: true}}
	if allocs := spanningRevokeMallocs(t, cfg); allocs > ceiling {
		t.Fatalf("a batched revoke of a warmed root with one remote child allocates %v times, ceiling %v", allocs, ceiling)
	}
}

// TestReliableBatchedSpanningRevokeAllocationCeiling is the batched revoke
// in reliable mode on a lossless fabric: the transmission record is
// recycled, so the ceiling stays at the key list.
func TestReliableBatchedSpanningRevokeAllocationCeiling(t *testing.T) {
	const ceiling = 1
	cfg := Config{Kernels: 2, UserPEs: 4, Faults: &fault.Plan{}, IKCBatching: IKCBatching{Revoke: true}}
	if allocs := spanningRevokeMallocs(t, cfg); allocs > ceiling {
		t.Fatalf("a reliable batched revoke of a warmed root with one remote child allocates %v times, ceiling %v", allocs, ceiling)
	}
}

// spanningRevokeMallocs is the average number of allocations of a warmed
// spanning revoke (spanningRevokeSteppers) on a machine built from cfg. The
// warm-up outlasts the reliable layer's reply cache, so the cache's growth
// to its bound is not counted.
func spanningRevokeMallocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, plant, revoke := spanningRevokeSteppers(t, cfg)
	defer s.Close()
	for i := 0; i < 2*replyCache; i++ {
		plant()
		revoke()
	}
	const rounds = 50
	var total uint64
	for i := 0; i < rounds; i++ {
		plant()
		total += mallocs(revoke)
	}
	if got := MemCapsEverywhere(s); got != 1 { // root
		t.Fatalf("%d memory capabilities left, want 1", got)
	}
	checkAudit(t, s)
	return float64(total) / rounds
}

// spanningRevokeSteppers sets up a root memory capability on the first user
// PE's kernel. plant derives a child of it and has the last user PE's VPE,
// on another kernel, obtain that child; revoke revokes the child, which
// takes one forward to the other kernel and its reply.
func spanningRevokeSteppers(tb testing.TB, cfg Config) (s *System, plant, revoke func()) {
	s = MustNew(cfg)
	pes := s.UserPEs()
	var root, mid cap.Selector
	var ownerID int
	revoking := false
	owner := stepVPE(tb, s, pes[0], func(v *VPE, p *sim.Proc) {
		var err error
		switch {
		case root == cap.NoSel:
			ownerID = v.ID
			root, err = v.AllocMem(p, 1<<20, dtu.PermRW)
		case revoking:
			err = v.Revoke(p, mid)
		default:
			mid, err = v.DeriveMem(p, root, 0, 4096, dtu.PermRW)
		}
		if err != nil {
			tb.Error(err)
		}
	})
	far := stepVPE(tb, s, pes[len(pes)-1], func(v *VPE, p *sim.Proc) {
		if _, err := v.ObtainFrom(p, ownerID, mid); err != nil {
			tb.Error(err)
		}
	})
	owner()
	plant = func() {
		revoking = false
		owner()
		far()
	}
	revoke = func() {
		revoking = true
		owner()
	}
	return s, plant, revoke
}

// BenchmarkSpanningRevoke is one warmed revoke per op of a capability with
// one child on the other kernel: the syscall, the mark walk, one forward and
// its reply, and the sweep. The child is planted between ops, off the
// clock. 0 allocs/op (TestSpanningRevokeAllocationCeiling pins it).
func BenchmarkSpanningRevoke(b *testing.B) {
	s, plant, revoke := spanningRevokeSteppers(b, Config{Kernels: 2, UserPEs: 4})
	defer s.Close()
	for i := 0; i < 8; i++ {
		plant()
		revoke()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		plant()
		b.StartTimer()
		revoke()
	}
}

// bootMachine is one machine's boot: NewSystem with 8 kernels and 64 user
// PEs, a VPE on each that exits from its program at once, run to quiescence
// and closed, on an engine recycled through pool as the harness does.
func bootMachine(tb testing.TB, pool *sim.Pool) {
	eng := pool.Get()
	s := MustNew(Config{Kernels: 8, UserPEs: 64, Engine: eng})
	for _, pe := range s.UserPEs() {
		if _, err := s.SpawnOn(pe, "empty", func(*VPE, *sim.Proc) {}); err != nil {
			tb.Fatal(err)
		}
	}
	s.Run()
	s.Close()
	pool.Put(eng)
}

// BenchmarkBoot is bootMachine per op. Its allocs/op are the per-machine
// records: kernels, pools, DTUs, the VPEs, their procs and the wait records
// of their syscall threads.
func BenchmarkBoot(b *testing.B) {
	pool := sim.NewPool()
	bootMachine(b, pool)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bootMachine(b, pool)
	}
}

// TestBootAllocationCeiling pins BenchmarkBoot's allocations per boot: 1 514
// with the kernels' stores, key generators and queues sized at boot
// (System.layout), proc records from blocks, and every proc's coroutine
// body and step event the engine's (11 allocations a proc, all in
// iter.Pull). The ceiling is the measurement plus 4.4%.
func TestBootAllocationCeiling(t *testing.T) {
	const ceiling = 1580
	pool := sim.NewPool()
	bootMachine(t, pool)
	if allocs := allocsPerRun(20, func() { bootMachine(t, pool) }); allocs > ceiling {
		t.Errorf("%.0f allocations per boot, ceiling %d", allocs, ceiling)
	} else {
		t.Logf("%.0f allocations per boot", allocs)
	}
}
