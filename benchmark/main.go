// Command benchmark is the repository's benchmark: five workloads that drive
// the simulator through the public functions of the internal packages, a set
// of end-to-end metrics a user of the simulator sees, and a per-layer ledger
// measured from outside the program. README.md says what each workload and
// metric is and why; BENCHMARK.json at the root of the repository lists
// them for the driver.
//
//	bash benchmark/run.sh --workload capstorm --seed 1 --seconds 18 --trace 0
//	bash benchmark/run.sh --workload capstorm --seed 1 --seconds 18 --trace 1 --trace-out spans.json
//	bash benchmark/run.sh --compare before.ndjson after.ndjson
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; everything else goes to standard error or
// to the file named by --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// setupRuns is how often a run sets its workload up; setup_s is the median,
// which one slow first set-up (cold caches, a growing heap) cannot move.
const setupRuns = 3

// environment records where and how a result was measured.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seconds    float64 `json:"seconds"`
	// Passes and Setups are what was executed within Seconds.
	Passes int `json:"passes"`
	Setups int `json:"setups"`
}

// record is the full result of one invocation, appended to --out as one
// line of JSON; --compare reads files of them. The last line of standard
// output is the subset the driver's contract names.
type record struct {
	Schema   string      `json:"schema"`
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	FailShare float64  `json:"fail_share"`
	Problems  []string `json:"problems,omitempty"`

	// SimDigest hashes every simulated statistic of a pass; all passes of
	// the run agreed on it if Correct.
	SimDigest string `json:"sim_digest"`
	// WallQ1S and WallQ3S are the quartiles of the timed passes behind
	// wall_s; OpSamples is the population of the simulated percentiles.
	WallQ1S   float64 `json:"wall_q1_s"`
	WallQ3S   float64 `json:"wall_q3_s"`
	OpSamples int     `json:"op_samples"`
	// PassWallS is every untraced timed pass as the wall clock measured it
	// and PassRefS the reference loop's time beside it, averaged over the
	// pass's segments (hostspeed.go): the raw data behind wall_s, which is
	// the median of wall * refNominal/ref.
	PassWallS []float64 `json:"pass_wall_s"`
	PassRefS  []float64 `json:"pass_ref_s"`
	// PaperErrPct is the model's error against the paper's Table 3, on the
	// workload that measures Table 3.
	PaperErrPct float64 `json:"paper_err_pct,omitempty"`

	Metrics map[string]metricValue `json:"metrics"`
}

const recordSchema = "semperos-benchmark/v1"

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of the generated inputs (capstorm scripts, fault plan)")
	seconds := fs.Float64("seconds", 18, "measure for at least this long: timed passes repeat until it has elapsed")
	traced := fs.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: reports the end-to-end metrics")
	traceOut := fs.String("trace-out", "", "write the spans of a traced run to this file")
	out := fs.String("out", "", "append the full result record to this file (input of --compare)")
	compare := fs.Bool("compare", false, "compare two files of result records: --compare before after")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: --compare before.ndjson after.ndjson")
			return 2
		}
		return compareFiles(os.Stdout, os.Stderr, fs.Arg(0), fs.Arg(1))
	}
	def := findWorkload(*name)
	if def == nil || fs.NArg() != 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: --workload <%s> [--seed n] [--seconds s] [--trace 0|1]\n", strings.Join(workloadNames(), "|"))
		return 2
	}

	procs := min(def.Procs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	rec := record{
		Schema: recordSchema, Workload: def.Name, Seed: *seed, Traced: *traced == 1,
		Env: environment{
			NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
			Commit: commit(), Seconds: *seconds, Setups: setupRuns,
		},
	}
	var tr *tracer
	defs := endToEnd
	if rec.Traced {
		tr, defs = newTracer(), perLayer
	}
	values, err := measure(&rec, def.make(), tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.Name, err)
		return 1
	}
	if rec.Traced {
		clock := newHostClock()
		clock.start()
		probes := runProbes()
		_, speed := clock.stop()
		for name, v := range probes {
			if strings.HasSuffix(name, "_ns") {
				v *= speed
			}
			values[name] = v
		}
	}
	rec.Metrics = report(defs, values)
	if *traceOut != "" && tr != nil {
		if err := tr.writeFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing record: %v\n", err)
			return 1
		}
	}
	summarize(os.Stderr, rec)
	line, err := json.Marshal(contractLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// commit is the commit under test as run.sh found it; a checkout that is
// not a git repository has none.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measure sets w up, runs its timed passes, verifies them, fills in rec and
// returns the measured metrics by name. With a tracer the passes alternate
// untraced and traced and the metrics are the per-layer ones but for the
// probes, else the end-to-end ones.
func measure(rec *record, w workload, tr *tracer) (map[string]float64, error) {
	heapBase := readHeap()
	setupTimes := make([]float64, rec.Env.Setups)
	heaps := make([]heapReading, rec.Env.Setups)
	clock := newHostClock()
	for i := range setupTimes {
		clock.start()
		heap, err := w.setup(rec.Seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		measured, speed := clock.stop()
		setupTimes[i] = measured.Seconds() * speed
		heap.Bytes -= min(heap.Bytes, heapBase)
		heaps[i] = heap
	}

	// Timed passes until Seconds have elapsed, at least two: a traced run
	// needs one of each kind, and a second pass is what shows the first one
	// was reproducible. A traced run alternates untraced and traced passes,
	// so the cost of tracing is measured against the same process state.
	var plain, traced []passResult
	run := func(passes []passResult, t *tracer) []passResult {
		res := timedPass(w, t, clock)
		if len(passes) > 0 {
			// Only the first pass of each kind reports its latencies; held
			// for every pass they would grow the heap later passes see.
			res.Sim.ClientOps, res.Sim.ByKind = nil, [numOpKinds][]uint64{}
		}
		return append(passes, res)
	}
	start := time.Now()
	for n := 0; n < 2 || time.Since(start).Seconds() < rec.Env.Seconds; n++ {
		if tr != nil && n%2 == 1 {
			tr.pass = len(traced)
			traced = run(traced, tr)
		} else {
			plain = run(plain, nil)
		}
	}
	all := append(append([]passResult(nil), plain...), traced...)
	rec.Env.Passes = len(all)

	// Verification. The first pass supplies the simulated statistics; a
	// pass that does not reproduce them failed in every operation.
	first := all[0]
	rec.SimDigest = first.Sim.Digest
	rec.PaperErrPct = first.Sim.PaperErrPct
	for i, p := range all {
		rec.Attempted += p.Attempted
		rec.Failed += p.Failed
		rec.Problems = append(rec.Problems, p.Problems...)
		if p.Sim.Digest != first.Sim.Digest {
			rec.Failed += p.Attempted - p.Failed
			rec.Problems = append(rec.Problems, fmt.Sprintf("pass %d simulated %s, pass 0 %s", i, p.Sim.Digest, first.Sim.Digest))
		}
	}
	rec.Correct = rec.Failed == 0
	if rec.PaperErrPct >= paperErrLimit {
		rec.Correct = false
		rec.Problems = append(rec.Problems, fmt.Sprintf("Table 3 is %.2f%% off the paper, limit %.0f%%", rec.PaperErrPct, paperErrLimit))
	}
	if len(rec.Problems) > 16 {
		rec.Problems = rec.Problems[:16]
	}
	rec.FailShare = float64(rec.Failed) / float64(rec.Attempted)

	walls := make([]float64, len(plain))
	for i, p := range plain {
		walls[i] = wallSeconds(p)
		rec.PassWallS = append(rec.PassWallS, p.Wall.Seconds())
		rec.PassRefS = append(rec.PassRefS, refNominal.Seconds()/p.Speed)
	}
	rec.WallQ1S, _, rec.WallQ3S = quartiles(walls)
	rec.OpSamples = len(first.Sim.ClientOps)
	if tr == nil {
		return endToEndValues(plain, median(setupTimes), heaps), nil
	}
	values := layerValues(traced, tr, heaps)
	values["harness.trace_overhead_pct"] = 100 * (medianOf(traced, wallSeconds)/median(walls) - 1)
	return values, nil
}

// medianOf is the median over the passes of one host measurement.
func medianOf(passes []passResult, f func(passResult) float64) float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = f(p)
	}
	return median(vs)
}

// wallSeconds is a pass's wall clock at the reference machine's speed.
func wallSeconds(p passResult) float64 { return p.Wall.Seconds() * p.Speed }

// endToEndValues reduces the untraced passes to the end-to-end metrics:
// medians of the host measurements (times at the reference machine's speed),
// the first pass's simulated statistics, the median live heap of the
// set-ups' warm-up passes.
func endToEndValues(passes []passResult, setupS float64, heaps []heapReading) map[string]float64 {
	med := func(f func(passResult) float64) float64 { return medianOf(passes, f) }
	sim := passes[0].Sim
	ops := sortedCopy(sim.ClientOps)
	live := make([]float64, len(heaps))
	for i, h := range heaps {
		live[i] = float64(h.Bytes) / 1e6
	}
	return map[string]float64{
		"setup_s":           setupS,
		"wall_s":            med(wallSeconds),
		"alloc_mb":          med(func(p passResult) float64 { return float64(p.AllocBytes) / 1e6 }),
		"mallocs_k":         med(func(p passResult) float64 { return float64(p.Mallocs) / 1e3 }),
		"live_heap_mb":      median(live),
		"sim_capops_per_s":  ratio(float64(sim.CapOps), float64(sim.Makespan)/core.CyclesPerSecond),
		"sim_op_p50_cycles": float64(percentile(ops, 50)),
		"sim_op_p99_cycles": float64(percentile(ops, 99)),
	}
}

// ratio is a/b, 0 when the denominator is: a metric whose layer the
// workload never reached reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues reduces the traced passes to the per-layer counts and phase
// timings: counts from the first pass (they are exact), timings as medians.
func layerValues(passes []passResult, tr *tracer, heaps []heapReading) map[string]float64 {
	first := passes[0]
	c, k, sim := first.Counts, first.Counts.Kernel, first.Sim
	capOps := float64(sim.CapOps)
	// phase is the median over the traced passes of the time spent in spans
	// of the given names, at the reference machine's speed.
	phase := func(names ...string) float64 {
		vs := make([]float64, len(passes))
		for i, p := range passes {
			d := tr.durations(i)
			for _, n := range names {
				vs[i] += d[n].Seconds() * p.Speed
			}
		}
		return median(vs)
	}
	med := func(f func(passResult) float64) float64 { return medianOf(passes, f) }
	appSpans := make([]string, 0, 7)
	for _, n := range []string{"tar", "untar", "find", "sqlite", "leveldb", "postmark", "baseline"} {
		appSpans = append(appSpans, "workload."+n)
	}
	// Events run inside core.run where the benchmark holds the machine and
	// inside workload.Run where it does not.
	eventTime := phase(append([]string{"core.run"}, appSpans...)...)

	v := map[string]float64{
		"sim.events":                 float64(c.Events),
		"sim.ns_per_event":           ratio(eventTime*1e9, float64(c.Events)),
		"noc.msgs":                   float64(c.NocMsgs),
		"noc.bytes":                  float64(c.NocBytes),
		"noc.lost":                   float64(c.NocLost),
		"noc.msgs_per_capop":         ratio(float64(c.NocMsgs), capOps),
		"cap.created":                float64(k.CapsCreated),
		"cap.deleted":                float64(k.CapsDeleted),
		"fault.dropped":              float64(c.FaultDropped),
		"core.syscalls":              float64(k.Syscalls),
		"core.ikc_req_msgs":          float64(k.IKCSent),
		"core.ikc_rep_msgs":          float64(k.IKCRepSent),
		"core.ikc_per_capop":         ratio(float64(k.IKCSent+k.IKCRepSent), capOps),
		"core.retransmits":           float64(k.Retransmits),
		"core.dup_suppressed":        float64(k.DupSuppressed),
		"core.batch_fill":            ratio(float64(k.IKCBatched), float64(k.IKCBatches)),
		"trace.ops":                  float64(c.TraceOps),
		"bench.tasks":                float64(c.Tasks),
		"harness.gc_cycles":          med(func(p passResult) float64 { return float64(p.GCCycles) }),
		"harness.gc_pause_ms":        med(func(p passResult) float64 { return p.GCPause.Seconds() * 1e3 * p.Speed }),
		"harness.wall_raw_s":         med(func(p passResult) float64 { return p.Wall.Seconds() }),
		"harness.host_speed":         med(func(p passResult) float64 { return p.Speed }),
		"bench.task_s_sum":           med(func(p passResult) float64 { return p.Counts.TaskTime.Seconds() * p.Speed }),
		"core.build_s":               phase("core.build"),
		"core.run_s":                 phase("core.run"),
		"core.audit_s":               phase("core.audit"),
		"core.close_s":               phase("core.close"),
		"bench.paper_err_pct":        sim.PaperErrPct,
		"workload.efficiency":        sim.Efficiency,
		"core.wire_per_delivered":    ratio(float64(k.IKCSent+k.Retransmits), float64(k.IKCSent)),
		"core.kernel_busy_share":     ratio(float64(k.Busy), float64(c.BusyCapacity)),
		"core.revoke_machine_cycles": float64(sim.RevokeMachine),
		"bench.parallel_speedup": med(func(p passResult) float64 {
			return ratio(p.Counts.TaskTime.Seconds(), p.Wall.Seconds())
		}),
	}
	perCap := make([]float64, len(heaps))
	for i, h := range heaps {
		perCap[i] = ratio(float64(h.Bytes), float64(h.Caps))
	}
	v["cap.live_bytes_per_cap"] = median(perCap)
	var timed []uint64
	for kind, lats := range sim.ByKind {
		sorted := sortedCopy(lats)
		v["core."+opKindNames[kind]+"_p50_cycles"] = float64(percentile(sorted, 50))
		v["core."+opKindNames[kind]+"_p99_cycles"] = float64(percentile(sorted, 99))
		timed = append(timed, lats...)
	}
	v["core.op_p999_cycles"] = float64(percentile(sortedCopy(timed), 99.9))
	for _, span := range appSpans {
		v[span+"_s"] = phase(span)
	}
	for _, e := range experiments {
		v["bench."+e.name+"_s"] = phase("bench." + e.name)
	}
	return v
}

// summarize prints a result for a person.
func summarize(w io.Writer, rec record) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d: %d passes, %d set-ups, GOMAXPROCS %d of %d CPUs, %s, commit %s\n",
		rec.Workload, rec.Seed, rec.Env.Passes, rec.Env.Setups, rec.Env.GOMAXPROCS, rec.Env.NProc, rec.Env.GoVersion, rec.Env.Commit)
	fmt.Fprintf(w, "correct %v: %d of %d failed; sim_digest %s; wall quartiles %.4f..%.4f s; %d operation samples\n",
		rec.Correct, rec.Failed, rec.Attempted, rec.SimDigest, rec.WallQ1S, rec.WallQ3S, rec.OpSamples)
	fmt.Fprintf(w, "host times are at reference speed (reference loop %v); as measured the passes took a median %.4f s beside a reference loop of %.4f s\n",
		refNominal, median(rec.PassWallS), median(rec.PassRefS))
	if rec.PaperErrPct > 0 {
		fmt.Fprintf(w, "Table 3 is %.2f%% off the paper, limit %.0f%%\n", rec.PaperErrPct, paperErrLimit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	fmt.Fprintf(w, "%s metrics (host = time at reference speed or memory of the simulator, sim = simulated, exact):\n", kind)
	for _, d := range defs {
		clock := "sim "
		if d.Host {
			clock = "host"
		}
		fmt.Fprintf(w, "  %-32s %s %16.6g %s\n", d.Name, clock, rec.Metrics[d.Name].Value, d.Unit)
	}
}
