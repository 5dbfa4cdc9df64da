package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cap"
	"repro/internal/core"
	"repro/internal/ddl"
	"repro/internal/dtu"
	"repro/internal/fault"
	"repro/internal/m3"
	"repro/internal/m3fs"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Probes: fixed-iteration loops over one layer's public API alone, run once
// per traced invocation. Each returns host nanoseconds per operation (or
// bytes per capability). They say where a layer's own cost stands; whether
// that cost matters end to end is for the workloads to show.

// perOp times f, which performs n operations, and returns ns per operation.
func perOp(n int, f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// runProbes returns every probe_* metric.
func runProbes() map[string]float64 {
	m := map[string]float64{
		"sim.probe_schedule_ns":         probeSchedule(),
		"sim.probe_handoff_ns":          probeHandoff(),
		"sim.probe_future_ns":           probeFuture(),
		"sim.probe_spawn_kill_ns":       probeSpawnKill(),
		"sim.probe_pool_cycle_ns":       probePoolCycle(),
		"noc.probe_send_ns":             probeNocSend(nil),
		"noc.probe_send_injected_ns":    probeNocSend(fault.NewInjector(fault.Plan{Seed: 1, Drop: 0.01}, 64)),
		"dtu.probe_msg_ns":              probeDTUMsg(),
		"dtu.probe_vec_item_ns":         probeDTUVec(),
		"ddl.probe_keymap_ns":           probeKeyMap(),
		"ddl.probe_gen_ns":              probeGenerator(),
		"fault.probe_inspect_ns":        probeInspect(),
		"m3fs.probe_open_read_close_ns": probeM3FS(),
		"bench.probe_tiny_task_ns":      probeTinyTask(),
	}
	m["cap.probe_insert_ns"], m["cap.probe_lookup_ns"], m["cap.probe_remove_ns"] = probeStore()
	m["cap.probe_bytes_per_cap"] = probeStoreBytes()
	m["core.probe_noop_syscall_ns"] = probeNoop()
	sys := core.MustNew(core.Config{Kernels: 2, UserPEs: 4})
	local, span, revoke := probeExchange(sys)
	m["core.probe_obtain_local_ns"], m["core.probe_obtain_span_ns"], m["core.probe_revoke_ns"] = local, span, revoke
	local, _, revoke = probeExchange(m3.MustNew(m3.Config{UserPEs: 4}).System)
	m["m3.probe_exchange_revoke_ns"] = local + revoke
	return m
}

// probeSchedule pushes events with mixed delays through the queue and
// drains it: one operation is one event scheduled and executed.
func probeSchedule() float64 {
	const n, batch = 1 << 18, 1024
	e := sim.NewEngine()
	r := newRNG(1)
	nop := func() {}
	return perOp(n, func() {
		for done := 0; done < n; done += batch {
			for i := 0; i < batch; i++ {
				e.Schedule(sim.Duration(r.intn(64)), nop)
			}
			e.Run()
		}
	})
}

// probeHandoff is the proc switch: one operation is one Sleep, engine to
// proc and back.
func probeHandoff() float64 {
	const n = 1 << 16
	e := sim.NewEngine()
	defer e.Kill()
	e.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	return perOp(n, e.Run)
}

// probeFuture is the call/reply rendezvous: one operation is one future
// created, waited on by a proc and completed by an event.
func probeFuture() float64 {
	const n = 1 << 15
	e := sim.NewEngine()
	defer e.Kill()
	e.Spawn("probe", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			f := sim.NewFuture[int](e)
			e.Schedule(1, func() { f.Complete(i) })
			f.Wait(p)
		}
	})
	return perOp(n, e.Run)
}

// probeSpawnKill is proc set-up and teardown: one operation is one proc
// spawned, parked for good and unwound by Kill.
func probeSpawnKill() float64 {
	const engines, procs = 64, 64
	return perOp(engines*procs, func() {
		for i := 0; i < engines; i++ {
			e := sim.NewEngine()
			for j := 0; j < procs; j++ {
				e.Spawn("probe", func(p *sim.Proc) { p.Park() })
			}
			e.Run()
			e.Kill()
		}
	})
}

// probePoolCycle is what the harness pays per task for its engine: one
// operation is Get, a small simulation, Put.
func probePoolCycle() float64 {
	const n = 1 << 12
	pool := sim.NewPool()
	nop := func() {}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			e := pool.Get()
			for j := 0; j < 32; j++ {
				e.Schedule(sim.Duration(j%8), nop)
			}
			e.Spawn("task", func(p *sim.Proc) {
				for k := 0; k < 8; k++ {
					p.Sleep(2)
				}
			})
			e.Run()
			pool.Put(e)
		}
	})
}

// probeNocSend is one NoC message sent and delivered on a 64-node mesh,
// with or without a fault injector on the path.
func probeNocSend(inj noc.Injector) float64 {
	const n, batch, nodes = 1 << 17, 1024, 64
	e := sim.NewEngine()
	net := noc.New(e, noc.DefaultConfig(nodes))
	if inj != nil {
		net.SetInjector(inj)
	}
	r := newRNG(1)
	nop := func() {}
	return perOp(n, func() {
		for done := 0; done < n; done += batch {
			for i := 0; i < batch; i++ {
				net.Send(r.intn(nodes), r.intn(nodes), 64, nop)
			}
			e.Run()
		}
	})
}

// probeFabric builds two privileged DTUs on a two-node mesh.
func probeFabric() (*sim.Engine, *dtu.DTU, *dtu.DTU) {
	e := sim.NewEngine()
	fab := dtu.NewFabric(e, noc.New(e, noc.DefaultConfig(2)))
	return e, fab.Add(0, 0), fab.Add(1, 0)
}

// probeDTUMsg is one message round trip: send, deliver, reply, deliver,
// credit back.
func probeDTUMsg() float64 {
	const n = 1 << 15
	const sendEP, reqEP, replyEP = 0, 1, 2
	e, a, b := probeFabric()
	left := n
	var send func()
	send = func() {
		if left--; left >= 0 {
			must(a.Send(sendEP, nil, 64, replyEP, 0))
		}
	}
	must(a.ConfigureSend(a, sendEP, b.PE(), reqEP, 1, 0))
	must(b.ConfigureRecv(b, reqEP, 0, func(m *dtu.Message) { b.Reply(m, nil, 16) }))
	must(a.ConfigureRecv(a, replyEP, 0, func(m *dtu.Message) {
		a.Ack(m)
		send()
	}))
	send()
	return perOp(n, e.Run)
}

// probeDTUVec is coalesced delivery: one operation is one logical message
// of a 16-item vector sent, delivered and freed.
func probeDTUVec() float64 {
	const vectors, width, recvEP = 1 << 12, 16, 1
	e, a, b := probeFabric()
	items := make([]dtu.VecItem, width)
	for i := range items {
		items[i].Size = 64
	}
	must(b.ConfigureRecvVec(b, recvEP, 0, func(ms []*dtu.Message) {
		for _, m := range ms {
			b.Free(m)
		}
	}))
	return perOp(vectors*width, func() {
		for i := 0; i < vectors; i++ {
			must(a.SendVecTo(b.PE(), recvEP, items))
			e.Run()
		}
	})
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: probe: %v", err))
	}
}

// probeKey is the i-th key of a probe's VPE v.
func probeKey(v, i int) ddl.Key { return ddl.NewKey(1, v+1, ddl.TypeMem, uint64(i)+1) }

// probeKeyMap is one KeyMap operation: 64Ki puts, gets and deletes.
func probeKeyMap() float64 {
	const n = 1 << 16
	var m ddl.KeyMap[int]
	return perOp(3*n, func() {
		for i := 0; i < n; i++ {
			m.Put(probeKey(i%64, i), i)
		}
		for i := 0; i < n; i++ {
			if _, ok := m.Get(probeKey(i%64, i)); !ok {
				panic("benchmark: probe: key map lost a key")
			}
		}
		for i := 0; i < n; i++ {
			m.Delete(probeKey(i%64, i))
		}
	})
}

// probeGenerator is one key minted.
func probeGenerator() float64 {
	const n = 1 << 18
	g := ddl.NewGenerator()
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			g.Next(1+i%8, i%64, ddl.TypeMem)
		}
	})
}

// probeStore times the capability table: 8 VPEs each insert a root and 128
// linked children, look every one up, then unlink and remove them, round
// after round on one store so slots recycle as in a kernel's steady state.
func probeStore() (insert, lookup, remove float64) {
	const rounds, vpes, children = 32, 8, 128
	const n = rounds * vpes * (children + 1)
	s := cap.NewStore()
	obj := &cap.MemObject{Size: 4096, Perm: dtu.PermRW}
	var tIns, tLook, tRem time.Duration
	var roots [vpes]*cap.Capability
	var kids []ddl.Key
	for r := 0; r < rounds; r++ {
		start := time.Now()
		for v := 0; v < vpes; v++ {
			roots[v] = s.Insert(&cap.Capability{Key: probeKey(v, 0), Owner: v, Sel: s.AllocSel(v), Object: obj, Perm: dtu.PermRW})
			for i := 1; i <= children; i++ {
				child := s.Insert(&cap.Capability{Key: probeKey(v, i), Owner: v, Sel: s.AllocSel(v), Object: obj, Perm: dtu.PermR, Parent: roots[v].Key})
				roots[v].AddChild(child.Key)
			}
		}
		tIns += time.Since(start)
		start = time.Now()
		for v := 0; v < vpes; v++ {
			for i := 0; i <= children; i++ {
				if s.Lookup(probeKey(v, i)) == nil {
					panic("benchmark: probe: store lost a capability")
				}
			}
		}
		tLook += time.Since(start)
		start = time.Now()
		for v := 0; v < vpes; v++ {
			kids = roots[v].AppendChildren(kids[:0])
			for _, k := range kids {
				roots[v].RemoveChild(k)
				s.Remove(k)
			}
			s.Remove(roots[v].Key)
		}
		tRem += time.Since(start)
	}
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	return ns(tIns), ns(tLook), ns(tRem)
}

// probeStoreBytes is the live heap one stored capability costs, over a
// store of 64Ki capabilities in trees of 128.
func probeStoreBytes() float64 {
	const n, children = 1 << 16, 128
	base := readHeap()
	s := cap.NewStore()
	obj := &cap.MemObject{Size: 4096, Perm: dtu.PermRW}
	var root *cap.Capability
	for i := 0; i < n; i++ {
		v := i / (children + 1) % 64
		c := &cap.Capability{Key: probeKey(v, i), Owner: v, Sel: s.AllocSel(v), Object: obj, Perm: dtu.PermR}
		if i%(children+1) == 0 {
			root = s.Insert(c)
			continue
		}
		c.Parent = root.Key
		root.AddChild(s.Insert(c).Key)
	}
	bytes := readHeap()
	bytes -= min(bytes, base)
	runtime.KeepAlive(s)
	return float64(bytes) / n
}

// probeInspect is one verdict of the fault injector on a kernel link.
func probeInspect() float64 {
	const n, kernels = 1 << 18, 64
	inj := fault.NewInjector(fault.Plan{Seed: 1, Drop: 0.01}, kernels)
	r := newRNG(1)
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			inj.Inspect(sim.Time(i), r.intn(kernels), r.intn(kernels), 64)
		}
	})
}

// probeNoop is the bare syscall path on an idle two-kernel machine: one
// operation is one no-op syscall, VPE to kernel and back.
func probeNoop() float64 {
	const n = 1 << 13
	sys := core.MustNew(core.Config{Kernels: 2, UserPEs: 4})
	defer sys.Close()
	if _, err := sys.Spawn("probe", func(v *core.VPE, p *sim.Proc) {
		for i := 0; i < n; i++ {
			v.Noop(p)
		}
	}); err != nil {
		panic(err)
	}
	return perOp(n, sys.Run)
}

// probeExchange runs Table 3's microbenchmark in a loop on an idle machine
// and times each step on the host: owner A allocates a root, B (A's group)
// and C (the last group, which is A's own on a one-kernel machine) obtain
// it, A revokes the tree. It returns host ns per local obtain, per obtain
// by C and per revoke. Host time between a call and its return is all spent
// on that operation, because nothing else runs on the machine.
func probeExchange(sys *core.System) (local, span, revoke float64) {
	const n = 1 << 10
	defer sys.Close()
	pes := sys.UserPEs()
	type turn struct {
		root      cap.Selector
		allocated *sim.Future[struct{}]
		obtained  *sim.Future[struct{}]
	}
	turns := make([]turn, n)
	for i := range turns {
		turns[i].allocated = sim.NewFuture[struct{}](sys.Eng)
		turns[i].obtained = sim.NewFuture[struct{}](sys.Eng)
	}
	var tLocal, tSpan, tRevoke time.Duration
	timed := func(total *time.Duration, f func() error) {
		start := time.Now()
		err := f()
		*total += time.Since(start)
		must(err)
	}
	var owner *core.VPE
	spawn := func(pe int, prog core.Program) *core.VPE {
		v, err := sys.SpawnOn(pe, "probe", prog)
		must(err)
		return v
	}
	owner = spawn(pes[0], func(v *core.VPE, p *sim.Proc) {
		for i := range turns {
			root, err := v.AllocMem(p, 4096, dtu.PermRW)
			must(err)
			turns[i].root = root
			turns[i].allocated.Complete(struct{}{})
			turns[i].obtained.Wait(p)
			timed(&tRevoke, func() error { return v.Revoke(p, root) })
		}
	})
	spawn(pes[1], func(v *core.VPE, p *sim.Proc) {
		for i := range turns {
			turns[i].allocated.Wait(p)
			timed(&tLocal, func() error { _, err := v.ObtainFrom(p, owner.ID, turns[i].root); return err })
		}
	})
	spawn(pes[len(pes)-1], func(v *core.VPE, p *sim.Proc) {
		for i := range turns {
			turns[i].allocated.Wait(p)
			timed(&tSpan, func() error { _, err := v.ObtainFrom(p, owner.ID, turns[i].root); return err })
			turns[i].obtained.Complete(struct{}{})
		}
	})
	sys.Run()
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / n }
	return ns(tLocal), ns(tSpan), ns(tRevoke)
}

// probeM3FS is the file path of the applications, one client against one
// service: one operation is open, read one extent, close with the extent
// capability revoked.
func probeM3FS() float64 {
	const n = 1 << 9
	sys := core.MustNew(core.Config{Kernels: 1, UserPEs: 2})
	defer sys.Close()
	ready := sim.NewFuture[*m3fs.FS](sys.Eng)
	preload := func(fs *m3fs.FS) { fs.MustCreate("f", 64<<10) }
	_, err := sys.Spawn("fs", m3fs.Program(m3fs.Config{ServiceName: "fs"}, preload, ready))
	must(err)
	_, err = sys.Spawn("client", func(v *core.VPE, p *sim.Proc) {
		ready.Wait(p)
		c, err := m3fs.Dial(p, v, "fs")
		must(err)
		for i := 0; i < n; i++ {
			f, err := c.Open(p, "f", false, false)
			must(err)
			_, err = f.Read(p, 4096)
			must(err)
			must(f.Close(p, true))
		}
	})
	must(err)
	return perOp(n, sys.Run)
}

// probeTinyTask is the harness's cost per task: one operation is one Table
// 3 cell through bench.RunSpec (pooled engine, two-kernel machine booted,
// four syscalls, teardown).
func probeTinyTask() float64 {
	const n = 1 << 8
	spec := bench.TaskSpec{
		Experiment: "table3/exchange-local", Kind: "table3", Variant: "local",
		Config: bench.ExpConfig{Kernels: 2, Instances: 2},
	}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			if r := bench.RunSpec(spec); r.Error != "" {
				panic("benchmark: probe: " + r.Error)
			}
		}
	})
}
