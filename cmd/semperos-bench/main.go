// Command semperos-bench regenerates the tables and figures of the
// SemperOS paper's evaluation (USENIX ATC'19, §5).
//
// Usage:
//
//	semperos-bench -experiment all              # everything, paper scale
//	semperos-bench -experiment table3,fig4      # selected experiments
//	semperos-bench -experiment fig6 -quick      # reduced scale
//	semperos-bench -quick -parallel 4 -json out.json
//
// Experiments: table3, fig4, fig5, table4, fig6, fig7, fig8, fig9, fig10,
// ablation; opt-in extras (excluded from "all"): ablation-ikc, faults,
// scale, churn — the churn scenario races open-loop session churn and a
// revocation storm against a crash+recovery of the last kernel.
// Every experiment plans its runs as tasks and executes them on an
// in-process worker pool (-parallel, default GOMAXPROCS), largest machine
// first. All simulated metrics are deterministic and independent of the
// parallelism and the schedule. Every task runs under an event budget
// proportional to the PEs it simulates, so one that cannot end fails like
// any other. A task that fails ends the run with one message on stderr,
// naming the task, and exit 1. -json writes every experiment run as a
// machine-readable record (schema semperos-bench/v1, see
// internal/bench/report.go).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

// experiment is one valid -experiment token and what it runs. An extra runs
// only when named, never under "all", so the default report stays directly
// comparable across changes.
type experiment struct {
	name  string
	extra bool
	run   func(o bench.Options, scaleKernels int)
}

// experiments are all the experiments, in run order.
var experiments = []experiment{
	{"table3", false, func(o bench.Options, _ int) { bench.Table3(o).Print(os.Stdout) }},
	{"fig4", false, func(o bench.Options, _ int) { bench.Fig4(o, 100).Print(os.Stdout) }},
	{"fig5", false, func(o bench.Options, _ int) { bench.Fig5(o, 128).Print(os.Stdout) }},
	{"table4", false, func(o bench.Options, _ int) { bench.Table4(o).Print(os.Stdout) }},
	{"fig6", false, func(o bench.Options, _ int) { bench.Fig6(o).Print(os.Stdout) }},
	{"fig7", false, func(o bench.Options, _ int) { printAll(bench.Fig7(o)) }},
	{"fig8", false, func(o bench.Options, _ int) { printAll(bench.Fig8(o)) }},
	{"fig9", false, func(o bench.Options, _ int) { printAll(bench.Fig9(o)) }},
	{"fig10", false, func(o bench.Options, _ int) { bench.Fig10(o).Print(os.Stdout) }},
	{"ablation", false, func(o bench.Options, _ int) { bench.AblationBatching(o, 128, 12).Print(os.Stdout) }},
	{"ablation-ikc", true, func(o bench.Options, _ int) { bench.AblationIKC(o, 96, 12).Print(os.Stdout) }},
	{"faults", true, func(o bench.Options, _ int) { bench.Faults(o, 64, 8).Print(os.Stdout) }},
	{"scale", true, func(o bench.Options, k int) { bench.Scale(o, k).Print(os.Stdout) }},
	{"churn", true, func(o bench.Options, _ int) { bench.Churn(o, 64, 8).Print(os.Stdout) }},
}

// printAll prints each figure of an experiment that makes several.
func printAll[R interface{ Print(io.Writer) }](rs []R) {
	for _, r := range rs {
		r.Print(os.Stdout)
	}
}

func main() {
	// realMain holds all the defers (profile flushing, file closing), so an
	// error exit still stops the CPU profile — os.Exit in main would skip
	// them and truncate the profile.
	os.Exit(realMain(os.Args[1:], os.Stderr))
}

// reportTaskFailure turns the sweeps' fail-fast panic (bench.TaskError) into
// a message on stderr and exit code 1; any other panic is a bug and goes on.
// realMain defers it first, so it runs after the profile and file defers.
func reportTaskFailure(stderr io.Writer, code *int) {
	switch r := recover().(type) {
	case nil:
	case bench.TaskError:
		fmt.Fprintf(stderr, "semperos-bench: %v\n", r)
		*code = 1
	default:
		panic(r)
	}
}

func realMain(args []string, stderr io.Writer) (code int) {
	defer reportTaskFailure(stderr, &code)
	valid := map[string]bool{"all": true}
	var names, extras []string // in run order, for the usage messages
	for _, e := range experiments {
		valid[e.name] = true
		if e.extra {
			extras = append(extras, e.name)
		} else {
			names = append(names, e.name)
		}
	}
	fs := flag.NewFlagSet("semperos-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "comma-separated list: "+strings.Join(names, ",")+",all; extras (opt-in, excluded from all): "+strings.Join(extras, ", "))
	quick := fs.Bool("quick", false, "run at reduced scale (64 instances, 8 kernels)")
	parallel := fs.Int("parallel", 0, "experiment worker-pool size (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write machine-readable results to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	faultseed := fs.Uint64("faultseed", 1, "seed of the deterministic fault injector (faults experiment); identical seeds reproduce runs byte-identically at any -parallel")
	scalekernels := fs.Int("scalekernels", 0, "cap the scale experiment's grid at this many kernels (0 = the full grid up to 1024)")
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2 // Parse already reported the error and the usage
	}
	if fs.NArg() > 0 {
		// "semperos-bench -quick table3" would otherwise run all experiments.
		fmt.Fprintf(stderr, "unexpected argument %q; name experiments with -experiment\n", fs.Arg(0))
		return 2
	}

	// Flag hygiene: sizes must be non-negative.
	for _, f := range []struct {
		name     string
		negative bool
	}{{"-parallel", *parallel < 0}, {"-scalekernels", *scalekernels < 0}} {
		if f.negative {
			fmt.Fprintf(stderr, "%s must be non-negative\n", f.name)
			return 2
		}
	}
	if *scalekernels > 0 && *scalekernels < bench.ScaleMinKernels() {
		fmt.Fprintf(stderr, "-scalekernels %d is below the smallest scale point (%d kernels)\n", *scalekernels, bench.ScaleMinKernels())
		return 2
	}

	want := map[string]bool{}
	var unknown []string
	for _, e := range strings.Split(*experiment, ",") {
		name := strings.TrimSpace(e)
		if name == "" {
			continue // tolerate stray commas (e.g. "table3,")
		}
		if !valid[name] {
			unknown = append(unknown, name)
			continue
		}
		want[name] = true
	}
	if len(want) == 0 && len(unknown) == 0 {
		unknown = append(unknown, *experiment)
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(stderr, "unknown experiment(s) %q; valid names: all, %s (extras: %s)\n",
			strings.Join(unknown, ", "),
			strings.Join(names, ", "), strings.Join(extras, ", "))
		return 2
	}

	// Every output file is created before the first experiment runs, so an
	// unwritable path fails at once instead of after the whole sweep.
	var files [3]*os.File
	for i, path := range []string{*jsonPath, *memprofile, *cpuprofile} {
		if path == "" {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(stderr, "creating %s: %v\n", path, err)
			return 1
		}
		defer f.Close()
		files[i] = f
	}
	jsonFile, memFile, cpuFile := files[0], files[1], files[2]
	if cpuFile != nil {
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fmt.Fprintf(stderr, "starting CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	opts := bench.Full()
	if *quick {
		opts = bench.Quick()
	}
	opts.Parallel = *parallel
	opts.FaultSeed = *faultseed
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	report := bench.NewReport(*quick, workers)
	opts.Report = report

	ran := 0
	total := time.Duration(0)
	for _, e := range experiments {
		if !want[e.name] && (e.extra || !want["all"]) {
			continue
		}
		ran++
		start := time.Now()
		e.run(opts, *scalekernels)
		elapsed := time.Since(start)
		total += elapsed
		fmt.Printf("[%s took %v]\n\n", e.name, elapsed.Round(time.Millisecond))
	}

	fmt.Printf("[%d experiments, %d workers, total %v]\n", ran, workers, total.Round(time.Millisecond))
	report.WallclockSummary(os.Stdout, 10)
	if jsonFile != nil {
		err := report.WriteJSON(jsonFile)
		if err == nil {
			err = jsonFile.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", *jsonPath, err)
			return 1
		}
		fmt.Printf("[wrote %d results to %s]\n", report.Len(), *jsonPath)
	}
	if memFile != nil {
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(memFile); err != nil {
			fmt.Fprintf(stderr, "writing heap profile: %v\n", err)
			return 1
		}
		fmt.Printf("[wrote heap profile to %s]\n", *memprofile)
	}
	return 0
}
