package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Tasks that exist only for the harness tests: runTasks is the one way a
// task runs, so the tests plug their behaviours in where the experiments do.
var (
	ranMu sync.Mutex
	ran   []string // experiments in the order echo tasks started
	// runawayEngine is the engine the last runaway task ran on.
	runawayEngine *sim.Engine
)

// echo is a task that records its start and reports the given cycles.
func echo(experiment string, cfg ExpConfig, cycles int) Task {
	return Task{Experiment: experiment, Config: cfg, Run: func(_ *sim.Engine, res *Result) error {
		ranMu.Lock()
		ran = append(ran, experiment)
		ranMu.Unlock()
		res.Metrics.Cycles = uint64(cycles)
		return nil
	}}
}

func panicRun(*sim.Engine, *Result) error { panic("kaboom") }

func errorRun(*sim.Engine, *Result) error { return errors.New("nope") }

func procPanicRun(e *sim.Engine, _ *Result) error {
	defer e.Kill()
	e.Spawn("bad", func(p *sim.Proc) { panic("boom") })
	e.Run()
	return nil
}

func dirtyEngineRun(eng *sim.Engine, res *Result) error {
	if eng == nil {
		return errors.New("nil engine")
	}
	if eng.Now() != 0 || eng.Pending() != 0 || eng.Executed() != 0 || eng.LiveProcs() != 0 {
		return fmt.Errorf("engine not fresh: now=%d pending=%d executed=%d procs=%d",
			eng.Now(), eng.Pending(), eng.Executed(), eng.LiveProcs())
	}
	// Dirty the engine and leak a parked proc; do NOT Kill — the
	// harness must clean up on Put.
	eng.Spawn("leak", func(p *sim.Proc) { p.Park() })
	eng.Schedule(50, func() {})
	eng.RunUntil(10)
	eng.Schedule(100, func() {})
	res.Metrics.Cycles = 1
	return nil
}

// runawayRun never ends: one proc reschedules itself forever.
func runawayRun(eng *sim.Engine, res *Result) error {
	runawayEngine = eng
	eng.Spawn("spinner", func(p *sim.Proc) {
		for {
			p.Sleep(1)
		}
	})
	eng.Run()
	res.Metrics.Cycles = 1
	return nil
}

// stuckSyscallRun has a client open a session at a service whose Open
// handler never answers: the machine drains with the create-session syscall
// parked.
func stuckSyscallRun(eng *sim.Engine, res *Result) error {
	sys := core.MustNew(core.Config{Kernels: 1, UserPEs: 2, Engine: eng})
	defer sys.Close()
	pes := sys.UserPEs()
	up := sim.NewFuture[struct{}](sys.Eng)
	sys.SpawnOn(pes[0], "svc", func(v *core.VPE, p *sim.Proc) {
		err := v.RegisterService(p, "mute", core.ServiceHandlers{
			Open: func(p *sim.Proc, _ int, _ any) core.SvcResult { p.Park(); return core.SvcResult{} },
		})
		if err != nil {
			panic(err)
		}
		up.Complete(struct{}{})
		v.ServeLoop(p)
	})
	sys.SpawnOn(pes[1], "client", func(v *core.VPE, p *sim.Proc) {
		up.Wait(p)
		v.CreateSession(p, "mute", nil)
		panic("the session opened")
	})
	sys.Run()
	res.Metrics.Cycles = 1
	return audit(sys)
}

// TestRunTasksOrdering: results come back in plan order whatever the pool
// size, and thus whatever order the tasks complete in.
func TestRunTasksOrdering(t *testing.T) {
	const n = 16
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = echo(fmt.Sprintf("t%d", i), ExpConfig{}, i)
	}
	for _, parallel := range []int{1, 4, n} {
		rs := runTasks(parallel, tasks)
		if len(rs) != n {
			t.Fatalf("parallel=%d: got %d results, want %d", parallel, len(rs), n)
		}
		for i, r := range rs {
			if r.Experiment != fmt.Sprintf("t%d", i) || r.Metrics.Cycles != uint64(i) {
				t.Errorf("parallel=%d: result %d = %q/%d, want t%d/%d",
					parallel, i, r.Experiment, r.Metrics.Cycles, i, i)
			}
		}
	}
}

// TestCostModelOrder: the harness's cost model is the size of the machine a
// task simulates. Dispatch is largest-first and stable on ties, and it never
// shows in the results, which stay in plan order.
func TestCostModelOrder(t *testing.T) {
	tasks := []Task{
		echo("small-a", ExpConfig{Kernels: 1, Instances: 4}, 0),
		echo("mid", ExpConfig{Kernels: 8, Services: 8, Instances: 4}, 0),
		echo("small-b", ExpConfig{Kernels: 1, Instances: 4}, 0),
		echo("large", ExpConfig{Kernels: 1, Instances: 400}, 0),
		echo("small-c", ExpConfig{Kernels: 2, Services: 2, Instances: 1}, 0),
	}
	want := []string{"large", "mid", "small-a", "small-b", "small-c"}
	order := dispatchOrder(tasks)
	for i, name := range want {
		if tasks[order[i]].Experiment != name {
			t.Fatalf("dispatchOrder = %v, want the order %v", order, want)
		}
	}
	ran = nil
	rs := runTasks(1, tasks)
	if !slices.Equal(ran, want) {
		t.Errorf("one worker ran the tasks as %v, want %v", ran, want)
	}
	for i, r := range rs {
		if r.Experiment != tasks[i].Experiment || r.Config != tasks[i].Config {
			t.Errorf("result %d is %s %+v, want plan order (%s)", i, r.Experiment, r.Config, tasks[i].Experiment)
		}
	}
}

// TestRunTasksPanicCapture: a panicking task becomes an error result and
// does not take down its worker (later tasks still run).
func TestRunTasksPanicCapture(t *testing.T) {
	rs := runTasks(1, []Task{
		{Experiment: "boom", Config: ExpConfig{Kernels: 3}, Run: panicRun},
		{Experiment: "err", Run: errorRun},
		echo("ok", ExpConfig{}, 7),
	})
	if want := "task boom {Kernels:3 Services:0 Instances:0}: panic: kaboom"; rs[0].Error != want {
		t.Errorf("panic not captured: %q, want %q", rs[0].Error, want)
	}
	if want := "task err {Kernels:0 Services:0 Instances:0}: nope"; rs[1].Error != want {
		t.Errorf("error not captured: %q, want %q", rs[1].Error, want)
	}
	if rs[2].Error != "" || rs[2].Metrics.Cycles != 7 {
		t.Errorf("healthy task corrupted: %+v", rs[2])
	}
}

// TestFailedTaskPanicsWithTaskError: the sweeps fail fast with a value a
// caller can tell from a bug's panic (semperos-bench exits 1 on it).
func TestFailedTaskPanicsWithTaskError(t *testing.T) {
	defer func() {
		err, ok := recover().(TaskError)
		if want := "task err {Kernels:0 Services:0 Instances:0}: nope"; !ok || err.Error() != want {
			t.Errorf("execute panicked with %#v, want the TaskError %q: the task named once, and its error", err, want)
		}
	}()
	Quick().execute([]Task{{Experiment: "err", Run: errorRun}})
	t.Error("execute returned with a failed task")
}

// TestRunawayTaskHitsBudget: a task that never ends runs into its event
// budget. It comes back as an error Result naming its report row and fails a
// sweep with a TaskError; its engine goes back to the pool with every proc
// unwound and runs the next task exactly as a fresh engine does.
func TestRunawayTaskHitsBudget(t *testing.T) {
	task := Task{Experiment: "runaway", Config: ExpConfig{Kernels: 1, Instances: 2}, Run: runawayRun}
	res := runTask(task)
	want := fmt.Sprintf("task runaway {Kernels:1 Services:0 Instances:2}: panic: sim: event limit %d exceeded", 3*taskEventsPerPE)
	if !strings.HasPrefix(res.Error, want) {
		t.Errorf("error %q, want it to start with %q", res.Error, want)
	}
	if n := runawayEngine.LiveProcs(); n != 0 {
		t.Errorf("the pooled engine still has %d live procs", n)
	}

	func() {
		defer func() {
			err, ok := recover().(TaskError)
			if !ok || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("execute panicked with %#v, want a TaskError naming the task", err)
			}
		}()
		Quick().execute([]Task{task})
		t.Error("execute returned with a runaway task")
	}()

	// The pool hands the runaway's engine to the next task.
	eng := enginePool.Get()
	enginePool.Put(eng)
	if eng != runawayEngine {
		t.Fatal("the pool did not recycle the runaway task's engine")
	}
	cell := fig4Task("spanning", 20, 20)
	got := runTask(cell)
	var fresh Result
	if err := cell.Run(sim.NewEngine(), &fresh); err != nil || got.Error != "" {
		t.Fatalf("fig4 cell failed: fresh engine %v, pooled engine %s", err, got.Error)
	}
	if got.Metrics != fresh.Metrics || got.CapsMinted != fresh.CapsMinted {
		t.Errorf("pooled engine: %+v %d; fresh engine: %+v %d", got.Metrics, got.CapsMinted, fresh.Metrics, fresh.CapsMinted)
	}
}

// TestNonQuiescentDrainFails: a machine that runs dry with a syscall still
// parked is a failed task whose error carries the audit's lines — not a row
// of zeros.
func TestNonQuiescentDrainFails(t *testing.T) {
	res := runTask(Task{Experiment: "stuck", Run: stuckSyscallRun})
	for _, want := range []string{
		"the drained machine failed its audit",
		"k0/sys2: syscall createsession, await-answer of VPE 0",
		"VPE 1 (client): syscall createsession has not returned",
	} {
		if !strings.Contains(res.Error, want) {
			t.Errorf("error lacks %q:\n%s", want, res.Error)
		}
	}
	if res.Metrics != (Metrics{}) {
		t.Errorf("failed task still reports metrics: %+v", res.Metrics)
	}
}

// TestParallelDeterminism: the simulated metrics of a sweep are identical
// at -parallel 1 and -parallel 4 — the acceptance criterion of the harness.
func TestParallelDeterminism(t *testing.T) {
	sweep := func(parallel int) []Result {
		o := Quick()
		o.Parallel = parallel
		o.Report = NewReport(true, parallel)
		o.runEffSweeps("det", []sweepSpec{
			{tr: trace.Tar(), kernels: 2, services: 2, steps: []int{8, 16}},
			{tr: trace.PostMark(), kernels: 2, services: 2, steps: []int{8, 16}},
		})
		return o.Report.Results
	}
	serial, parallel := sweep(1), sweep(4)
	if len(serial) != len(parallel) || len(serial) == 0 {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Experiment != p.Experiment || s.Config != p.Config || s.Metrics != p.Metrics {
			t.Errorf("result %d differs:\n  serial:   %+v\n  parallel: %+v", i, s, p)
		}
	}
}

// miniSweep runs a cross-section of the evaluation (micro, chain, tree,
// ablation and workload tasks — including Table 4's makespan slots) and
// returns the recorded report rows with the host readings (wallclock, heap)
// zeroed, so two sweeps compare on simulated data only.
func miniSweep() []Result {
	o := Quick()
	o.Parallel = 2
	o.Report = NewReport(true, 1)
	Table3(o)
	Fig4(o, 20)
	Fig5(o, 32)
	AblationBatching(o, 32, 3)
	Table4(o)
	rs := slices.Clone(o.Report.Results)
	for i := range rs {
		rs[i].WallclockNS = 0
		rs[i].HeapPeakBytes = 0
	}
	return rs
}

// TestSweepRepeatDeterminism: the same sweep twice in one process — pooled
// engines recycled between the two, workers racing for tasks — records rows
// identical in every simulated field.
func TestSweepRepeatDeterminism(t *testing.T) {
	base, got := miniSweep(), miniSweep()
	if len(got) != len(base) || len(base) == 0 {
		t.Fatalf("repeat: %d rows, want %d", len(got), len(base))
	}
	for i := range base {
		if !reflect.DeepEqual(base[i], got[i]) {
			t.Errorf("repeat row %d differs:\n  first:  %+v\n  second: %+v", i, base[i], got[i])
		}
	}
}

// TestReportJSON: the report round-trips through JSON with the stable
// schema fields.
func TestReportJSON(t *testing.T) {
	rep := NewReport(true, 4)
	rep.Add(Result{
		Experiment:  "fig6/tar",
		Config:      ExpConfig{Kernels: 4, Services: 4, Instances: 16},
		Metrics:     Metrics{Cycles: 123, Efficiency: 0.5, CapOps: 21},
		WallclockNS: 456,
	})
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema   string `json:"schema"`
		Quick    bool   `json:"quick"`
		Parallel int    `json:"parallel"`
		Results  []struct {
			Experiment string `json:"experiment"`
			Config     struct {
				Kernels   int `json:"kernels"`
				Services  int `json:"services"`
				Instances int `json:"instances"`
			} `json:"config"`
			Metrics struct {
				Cycles     uint64  `json:"cycles"`
				Efficiency float64 `json:"efficiency"`
				CapOps     uint64  `json:"capops"`
			} `json:"metrics"`
			WallclockNS int64 `json:"wallclock_ns"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Schema != ReportSchema {
		t.Errorf("schema = %q, want %q", decoded.Schema, ReportSchema)
	}
	if len(decoded.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(decoded.Results))
	}
	r := decoded.Results[0]
	if r.Experiment != "fig6/tar" || r.Config.Kernels != 4 || r.Metrics.Cycles != 123 ||
		r.Metrics.Efficiency != 0.5 || r.Metrics.CapOps != 21 || r.WallclockNS != 456 {
		t.Errorf("result did not round-trip: %+v", r)
	}
}

// TestSweepRecordsEfficiency: the report entries of an efficiency sweep
// carry the computed efficiency on the parallel points and 1.0 on the
// baseline.
func TestSweepRecordsEfficiency(t *testing.T) {
	o := Quick()
	o.Report = NewReport(true, 0)
	pts := o.efficiencySweep(trace.Tar(), 2, 2, []int{8})
	rs := o.Report.Results
	if len(rs) != 2 {
		t.Fatalf("got %d report entries, want 2", len(rs))
	}
	if rs[0].Config.Instances != 1 || rs[0].Metrics.Efficiency != 1 {
		t.Errorf("baseline entry wrong: %+v", rs[0])
	}
	if rs[1].Config.Instances != 8 || rs[1].Metrics.Efficiency != pts[0].Efficiency {
		t.Errorf("point entry wrong: %+v (want eff %v)", rs[1], pts[0].Efficiency)
	}
	if rs[1].Metrics.Efficiency <= 0 || rs[1].Metrics.Efficiency > 1.01 {
		t.Errorf("efficiency out of range: %v", rs[1].Metrics.Efficiency)
	}
}

// TestRunTasksPooledEngines: every task receives a fresh-state engine, even
// after an earlier task on the same worker leaked parked procs and pending
// events — the engine pool Resets between tasks.
func TestRunTasksPooledEngines(t *testing.T) {
	var tasks []Task
	for _, name := range []string{"a", "b", "c", "d"} {
		tasks = append(tasks, Task{Experiment: name, Run: dirtyEngineRun})
	}
	for _, rs := range [][]Result{runTasks(1, tasks), runTasks(2, tasks)} {
		for _, r := range rs {
			if r.Error != "" {
				t.Errorf("%s: %s", r.Experiment, r.Error)
			}
		}
	}
}

// TestRunTasksCapturesProcPanic: a panic raised inside a simulated proc —
// the dominant failure mode of a broken experiment — becomes an error
// Result instead of tearing down the whole sweep.
func TestRunTasksCapturesProcPanic(t *testing.T) {
	rs := runTasks(1, []Task{{Experiment: "sim-boom", Run: procPanicRun}, echo("ok", ExpConfig{}, 1)})
	if !strings.Contains(rs[0].Error, "boom") {
		t.Errorf("proc panic not captured: %q", rs[0].Error)
	}
	if rs[1].Error != "" || rs[1].Metrics.Cycles != 1 {
		t.Errorf("healthy task corrupted: %+v", rs[1])
	}
}

// TestBatchedParallelDeterminism: the batched-transport ablation — every
// configuration with IKC batching enabled — produces bit-identical
// simulated metrics regardless of the harness worker-pool size (and thus
// regardless of which pooled, previously-dirtied engine each task lands
// on).
func TestBatchedParallelDeterminism(t *testing.T) {
	sweep := func(parallel int) AblationIKCResult {
		o := Quick()
		o.Parallel = parallel
		return AblationIKC(o, 32, 3)
	}
	serial, parallel := sweep(1), sweep(4)
	if len(serial.Exchange) == 0 || len(serial.SvcQuery) == 0 {
		t.Fatal("empty ablation result")
	}
	for i := range serial.Exchange {
		if serial.Exchange[i] != parallel.Exchange[i] {
			t.Errorf("exchange row %d differs:\n  serial:   %+v\n  parallel: %+v",
				i, serial.Exchange[i], parallel.Exchange[i])
		}
	}
	for i := range serial.SvcQuery {
		if serial.SvcQuery[i] != parallel.SvcQuery[i] {
			t.Errorf("svcquery row %d differs:\n  serial:   %+v\n  parallel: %+v",
				i, serial.SvcQuery[i], parallel.SvcQuery[i])
		}
	}
	// Batching must strictly reduce wire messages at every breadth.
	for _, rows := range [][]IKCRow{serial.Exchange, serial.SvcQuery} {
		for _, row := range rows {
			p, b := row.Plain, row.Batched
			if b.ReqMsgs+b.RepMsgs >= p.ReqMsgs+p.RepMsgs {
				t.Errorf("no message reduction at %d clients: %d vs %d",
					row.Clients, b.ReqMsgs+b.RepMsgs, p.ReqMsgs+p.RepMsgs)
			}
		}
	}
}

// TestReplyEnvelopeParallelDeterminism mirrors
// TestBatchedParallelDeterminism for the reply direction of the symmetric
// transport: the per-direction wire-message splits must be bit-identical
// across worker-pool sizes, and the batched reply direction must coalesce
// (strictly fewer reply messages than the plain transport at every
// breadth).
func TestReplyEnvelopeParallelDeterminism(t *testing.T) {
	sweep := func(parallel int) AblationIKCResult {
		o := Quick()
		o.Parallel = parallel
		return AblationIKC(o, 32, 3)
	}
	serial, parallel := sweep(1), sweep(4)
	for name, pair := range map[string][2][]IKCRow{
		"exchange": {serial.Exchange, parallel.Exchange},
		"svcquery": {serial.SvcQuery, parallel.SvcQuery},
	} {
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Errorf("%s row %d differs:\n  serial:   %+v\n  parallel: %+v",
					name, i, pair[0][i], pair[1][i])
			}
		}
		for _, row := range pair[0] {
			if row.Batched.RepMsgs >= row.Plain.RepMsgs {
				t.Errorf("%s: no reply coalescing at %d clients: %d vs %d",
					name, row.Clients, row.Batched.RepMsgs, row.Plain.RepMsgs)
			}
		}
	}
}
