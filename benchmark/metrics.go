package main

// The names of everything the benchmark measures. BENCHMARK.json repeats
// the workloads and metrics (name, unit, direction, bound); a test keeps the
// two in step. What the contract of BENCHMARK.json has no key for — the
// layer of a per-layer metric and what it is expected to move — lives here
// and in the README.

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string
	Why  string
	// Procs is the GOMAXPROCS the run is pinned to (or the machine's CPU
	// count, if smaller): the threads the workload can keep busy. One
	// engine runs one proc at a time, so a second thread adds nothing to a
	// single-engine workload but a cross-thread wake-up per proc switch
	// (capstorm takes 1.2-1.4x as long at 2, a quarter of the processor
	// time in futex calls), and that wake-up is what a busy host delays
	// most. The quick sweep runs two engines on two harness workers, as
	// `semperos-bench` does.
	Procs int
	make  func() workload
}

var workloads = []workloadDef{
	{"apps",
		"Paper-scale Table 4 / Fig. 6: six traced applications, 512 instances, 64 kernels, 64 m3fs services; service loops, sessions, DTU/NoC messages and proc hand-offs dominate, capability code is minor.",
		1, func() workload { return &appsWorkload{shape: paperApps} }},
	{"capstorm",
		"Capability protocol under load, no services: 64 clients on 8 kernels obtain, derive, delegate and revoke trees from a seeded script; core, IKC, cap and ddl do the work; m3fs and bench are bypassed.",
		1, func() workload { return &stormWorkload{shape: paperStorm} }},
	{"capstorm-lossy",
		"The capstorm script over a fabric dropping 1% of kernel messages with batched transports: envelopes, retransmit timers, dedup and the fault injector carry the load the plain path bypasses.",
		1, func() workload { return &stormWorkload{shape: paperStorm, lossy: true} }},
	{"scale",
		"One 256-kernel, 512-client, 132 351-capability machine and its machine-wide revoke: boot cost, table slabs, key maps, event-heap depth and live memory dominate; services and transports are idle.",
		1, func() workload { return &scaleWorkload{shape: paperScale} }},
	{"quick-sweep",
		"What a user runs: the ten experiments of semperos-bench -quick on two harness workers, 346 short tasks; harness dispatch, engine-pool reset, machine boot/teardown and GC, which apps bypasses.",
		sweepWorkers, func() workload { return &sweepWorkload{experiments: experiments} }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef describes one metric. Host metrics are time or memory of the
// simulator process and vary from run to run; the others are simulated and
// exact for a given input. Every host time but harness.wall_raw_s is at the
// reference machine's speed (hostspeed.go).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Host   bool
	// Layer and Moves describe a per-layer metric: the package it measures
	// and the end-to-end metric and workload it is expected to move.
	Layer string
	Moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the simulator sees. Every workload reports
// every one of them; the README says what each means on each workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Host: true},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25, Host: true},
	{Name: "alloc_mb", Unit: "MB", Better: lower, Bound: 0.02, Host: true},
	{Name: "mallocs_k", Unit: "kobj", Better: lower, Bound: 0.02, Host: true},
	{Name: "live_heap_mb", Unit: "MB", Better: lower, Bound: 0.06, Host: true},
	{Name: "sim_capops_per_s", Unit: "ops/sim-s", Better: higher, Bound: 0.02},
	{Name: "sim_op_p50_cycles", Unit: "cycles", Better: lower, Bound: 0.02},
	{Name: "sim_op_p99_cycles", Unit: "cycles", Better: lower, Bound: 0.02},
}

// paperErrLimit is the calibration the repository asserts for Table 3: a
// quick-sweep run whose error (bench.paper_err_pct) reaches it is not
// correct.
const paperErrLimit = 5.0

// perLayer lists the ledger: counts and phase timings taken at the
// benchmark's own call sites during a traced pass, and probe_* loops over
// one layer's public API alone. A metric reads 0 on a workload that does
// not reach its layer or gives the benchmark no handle on it.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: lower, Layer: "sim", Moves: "wall_s on every workload"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: lower, Host: true, Layer: "sim", Moves: "wall_s on every workload"},
	{Name: "sim.probe_schedule_ns", Unit: "ns", Better: lower, Host: true, Layer: "sim", Moves: "wall_s on every workload"},
	{Name: "sim.probe_handoff_ns", Unit: "ns", Better: lower, Host: true, Layer: "sim", Moves: "wall_s on every workload (the proc switch is about half of all samples)"},
	{Name: "sim.probe_future_ns", Unit: "ns", Better: lower, Host: true, Layer: "sim", Moves: "wall_s on every workload"},
	{Name: "sim.probe_spawn_kill_ns", Unit: "ns", Better: lower, Host: true, Layer: "sim", Moves: "wall_s on quick-sweep"},
	{Name: "sim.probe_pool_cycle_ns", Unit: "ns", Better: lower, Host: true, Layer: "sim", Moves: "wall_s on quick-sweep"},

	{Name: "noc.msgs", Unit: "count", Better: lower, Layer: "noc", Moves: "wall_s on capstorm, capstorm-lossy, scale"},
	{Name: "noc.bytes", Unit: "B", Better: lower, Layer: "noc", Moves: "none (model statistic)"},
	{Name: "noc.lost", Unit: "count", Better: lower, Layer: "noc", Moves: "failed on every lossless workload"},
	{Name: "noc.msgs_per_capop", Unit: "ratio", Better: lower, Layer: "noc", Moves: "sim_capops_per_s on capstorm, capstorm-lossy"},
	{Name: "noc.probe_send_ns", Unit: "ns", Better: lower, Host: true, Layer: "noc", Moves: "wall_s on apps"},
	{Name: "noc.probe_send_injected_ns", Unit: "ns", Better: lower, Host: true, Layer: "noc", Moves: "wall_s on capstorm-lossy"},

	{Name: "dtu.probe_msg_ns", Unit: "ns", Better: lower, Host: true, Layer: "dtu", Moves: "wall_s on apps"},
	{Name: "dtu.probe_vec_item_ns", Unit: "ns", Better: lower, Host: true, Layer: "dtu", Moves: "wall_s on capstorm-lossy"},

	{Name: "ddl.probe_keymap_ns", Unit: "ns", Better: lower, Host: true, Layer: "ddl", Moves: "wall_s, live_heap_mb on scale"},
	{Name: "ddl.probe_gen_ns", Unit: "ns", Better: lower, Host: true, Layer: "ddl", Moves: "wall_s on scale"},

	{Name: "cap.created", Unit: "count", Better: lower, Layer: "cap", Moves: "none (model statistic)"},
	{Name: "cap.deleted", Unit: "count", Better: lower, Layer: "cap", Moves: "none (model statistic)"},
	{Name: "cap.live_bytes_per_cap", Unit: "B", Better: lower, Host: true, Layer: "cap", Moves: "live_heap_mb on scale"},
	{Name: "cap.probe_insert_ns", Unit: "ns", Better: lower, Host: true, Layer: "cap", Moves: "wall_s, alloc_mb on scale; wall_s on capstorm"},
	{Name: "cap.probe_lookup_ns", Unit: "ns", Better: lower, Host: true, Layer: "cap", Moves: "wall_s on scale, capstorm"},
	{Name: "cap.probe_remove_ns", Unit: "ns", Better: lower, Host: true, Layer: "cap", Moves: "wall_s on capstorm"},
	{Name: "cap.probe_bytes_per_cap", Unit: "B", Better: lower, Host: true, Layer: "cap", Moves: "live_heap_mb, alloc_mb on scale"},

	{Name: "fault.dropped", Unit: "count", Better: lower, Layer: "fault", Moves: "none (input statistic)"},
	{Name: "fault.probe_inspect_ns", Unit: "ns", Better: lower, Host: true, Layer: "fault", Moves: "wall_s on capstorm-lossy"},

	{Name: "core.syscalls", Unit: "count", Better: lower, Layer: "core", Moves: "none (model statistic)"},
	{Name: "core.ikc_req_msgs", Unit: "count", Better: lower, Layer: "core", Moves: "sim_capops_per_s on capstorm-lossy"},
	{Name: "core.ikc_rep_msgs", Unit: "count", Better: lower, Layer: "core", Moves: "sim_capops_per_s on capstorm-lossy"},
	{Name: "core.ikc_per_capop", Unit: "ratio", Better: lower, Layer: "core", Moves: "sim_capops_per_s on capstorm, capstorm-lossy"},
	{Name: "core.retransmits", Unit: "count", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm-lossy"},
	{Name: "core.dup_suppressed", Unit: "count", Better: lower, Layer: "core", Moves: "wall_s on capstorm-lossy"},
	{Name: "core.wire_per_delivered", Unit: "ratio", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles, wall_s on capstorm-lossy"},
	{Name: "core.batch_fill", Unit: "ratio", Better: higher, Layer: "core", Moves: "sim_capops_per_s on capstorm-lossy"},
	{Name: "core.kernel_busy_share", Unit: "ratio", Better: lower, Layer: "core", Moves: "sim_capops_per_s on capstorm, capstorm-lossy"},
	{Name: "core.obtain_local_p50_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p50_cycles on capstorm, capstorm-lossy"},
	{Name: "core.obtain_local_p99_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm, capstorm-lossy"},
	{Name: "core.obtain_span_p50_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p50_cycles on capstorm, capstorm-lossy"},
	{Name: "core.obtain_span_p99_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm, capstorm-lossy"},
	{Name: "core.delegate_local_p50_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p50_cycles on capstorm, capstorm-lossy"},
	{Name: "core.delegate_local_p99_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm, capstorm-lossy"},
	{Name: "core.delegate_span_p50_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p50_cycles on capstorm, capstorm-lossy"},
	{Name: "core.delegate_span_p99_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm, capstorm-lossy"},
	{Name: "core.derive_p50_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p50_cycles on capstorm, capstorm-lossy, scale"},
	{Name: "core.derive_p99_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm, capstorm-lossy, scale"},
	{Name: "core.revoke_p50_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_capops_per_s on capstorm, capstorm-lossy"},
	{Name: "core.revoke_p99_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm, capstorm-lossy"},
	{Name: "core.op_p999_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_op_p99_cycles on capstorm-lossy"},
	{Name: "core.revoke_machine_cycles", Unit: "cycles", Better: lower, Layer: "core", Moves: "sim_capops_per_s on scale"},
	{Name: "core.build_s", Unit: "s", Better: lower, Host: true, Layer: "core", Moves: "wall_s on scale, quick-sweep"},
	{Name: "core.run_s", Unit: "s", Better: lower, Host: true, Layer: "core", Moves: "wall_s on capstorm, capstorm-lossy, scale"},
	{Name: "core.audit_s", Unit: "s", Better: lower, Host: true, Layer: "core", Moves: "wall_s on scale"},
	{Name: "core.close_s", Unit: "s", Better: lower, Host: true, Layer: "core", Moves: "wall_s on scale, quick-sweep"},
	{Name: "core.probe_noop_syscall_ns", Unit: "ns", Better: lower, Host: true, Layer: "core", Moves: "wall_s on capstorm, scale"},
	{Name: "core.probe_obtain_local_ns", Unit: "ns", Better: lower, Host: true, Layer: "core", Moves: "wall_s on capstorm"},
	{Name: "core.probe_obtain_span_ns", Unit: "ns", Better: lower, Host: true, Layer: "core", Moves: "wall_s on capstorm, capstorm-lossy"},
	{Name: "core.probe_revoke_ns", Unit: "ns", Better: lower, Host: true, Layer: "core", Moves: "wall_s on capstorm, capstorm-lossy"},

	{Name: "m3.probe_exchange_revoke_ns", Unit: "ns", Better: lower, Host: true, Layer: "m3", Moves: "wall_s on quick-sweep (marginally)"},
	{Name: "m3fs.probe_open_read_close_ns", Unit: "ns", Better: lower, Host: true, Layer: "m3fs", Moves: "wall_s on apps, quick-sweep"},
	{Name: "trace.ops", Unit: "count", Better: higher, Layer: "trace", Moves: "none (denominator)"},

	{Name: "workload.tar_s", Unit: "s", Better: lower, Host: true, Layer: "workload", Moves: "wall_s on apps"},
	{Name: "workload.untar_s", Unit: "s", Better: lower, Host: true, Layer: "workload", Moves: "wall_s on apps"},
	{Name: "workload.find_s", Unit: "s", Better: lower, Host: true, Layer: "workload", Moves: "wall_s on apps"},
	{Name: "workload.sqlite_s", Unit: "s", Better: lower, Host: true, Layer: "workload", Moves: "wall_s on apps"},
	{Name: "workload.leveldb_s", Unit: "s", Better: lower, Host: true, Layer: "workload", Moves: "wall_s on apps"},
	{Name: "workload.postmark_s", Unit: "s", Better: lower, Host: true, Layer: "workload", Moves: "wall_s on apps"},
	{Name: "workload.efficiency", Unit: "ratio", Better: higher, Layer: "workload", Moves: "sim_op_p50_cycles, sim_capops_per_s on apps"},
	{Name: "workload.baseline_s", Unit: "s", Better: lower, Host: true, Layer: "workload", Moves: "wall_s on apps"},

	{Name: "bench.tasks", Unit: "count", Better: lower, Layer: "bench", Moves: "none (denominator)"},
	{Name: "bench.task_s_sum", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.parallel_speedup", Unit: "ratio", Better: higher, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.table3_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.fig4_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.fig5_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.table4_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.fig6_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.fig7_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.fig8_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.fig9_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.fig10_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.ablation_s", Unit: "s", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},
	{Name: "bench.paper_err_pct", Unit: "%", Better: lower, Layer: "bench", Moves: "correct on quick-sweep (false at 5 or more)"},
	{Name: "bench.probe_tiny_task_ns", Unit: "ns", Better: lower, Host: true, Layer: "bench", Moves: "wall_s on quick-sweep"},

	{Name: "harness.gc_cycles", Unit: "count", Better: lower, Host: true, Layer: "harness", Moves: "alloc_mb, mallocs_k on every workload"},
	{Name: "harness.gc_pause_ms", Unit: "ms", Better: lower, Host: true, Layer: "harness", Moves: "wall_s on every workload"},
	{Name: "harness.wall_raw_s", Unit: "s", Better: lower, Host: true, Layer: "harness", Moves: "none (a traced pass as the wall clock measured it; wall_s is this times harness.host_speed)"},
	{Name: "harness.host_speed", Unit: "ratio", Better: higher, Host: true, Layer: "harness", Moves: "none (reference machine's time for the reference loop over this host's; below 1 the host was slower)"},
	{Name: "harness.trace_overhead_pct", Unit: "%", Better: lower, Host: true, Layer: "harness", Moves: "none (cost of the traced run itself)"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs measured values with the units of defs. It panics when the
// code measured a name the table does not list or missed one it does: the
// consistency test then fails before a mislabelled number is printed.
func report(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("benchmark: metric " + d.Name + " was not measured")
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				panic("benchmark: measured metric " + name + " is not in the table")
			}
		}
	}
	return out
}
