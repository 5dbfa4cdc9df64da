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

// experimentNames are the valid -experiment tokens, in run order. The
// extras (run only when named, never under "all") keep the default report
// directly comparable across PRs.
var experimentNames = []string{
	"table3", "fig4", "fig5", "table4", "fig6", "fig7", "fig8", "fig9", "fig10", "ablation",
}

var extraExperimentNames = []string{"ablation-ikc", "faults", "scale", "churn"}

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
	fs := flag.NewFlagSet("semperos-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	experiment := fs.String("experiment", "all", "comma-separated list: table3,fig4,fig5,table4,fig6,fig7,fig8,fig9,fig10,ablation,all; extras (opt-in, excluded from all): ablation-ikc, faults, scale, churn")
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

	valid := map[string]bool{"all": true}
	for _, n := range experimentNames {
		valid[n] = true
	}
	for _, n := range extraExperimentNames {
		valid[n] = true
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
			strings.Join(experimentNames, ", "),
			strings.Join(extraExperimentNames, ", "))
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "creating %s: %v\n", *cpuprofile, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
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

	all := want["all"]
	ran := 0
	total := time.Duration(0)
	doRun := func(name string, fn func()) {
		ran++
		start := time.Now()
		fn()
		elapsed := time.Since(start)
		total += elapsed
		fmt.Printf("[%s took %v]\n\n", name, elapsed.Round(time.Millisecond))
	}
	run := func(name string, fn func()) {
		if !all && !want[name] {
			return
		}
		doRun(name, fn)
	}
	// runExtra experiments are opt-in only: they are excluded from
	// `-experiment all` so the default run (and its BENCH_*.json
	// trajectory) stays directly comparable across PRs; request them by
	// name (e.g. `-experiment all,ablation-ikc`).
	runExtra := func(name string, fn func()) {
		if !want[name] {
			return
		}
		doRun(name, fn)
	}

	run("table3", func() { bench.Table3(opts).Print(os.Stdout) })
	run("fig4", func() { bench.Fig4(opts, 100).Print(os.Stdout) })
	run("fig5", func() { bench.Fig5(opts, 128).Print(os.Stdout) })
	run("table4", func() { bench.Table4(opts).Print(os.Stdout) })
	run("fig6", func() { bench.Fig6(opts).Print(os.Stdout) })
	run("fig7", func() {
		for _, r := range bench.Fig7(opts) {
			r.Print(os.Stdout)
		}
	})
	run("fig8", func() {
		for _, r := range bench.Fig8(opts) {
			r.Print(os.Stdout)
		}
	})
	run("fig9", func() {
		for _, r := range bench.Fig9(opts) {
			r.Print(os.Stdout)
		}
	})
	run("fig10", func() { bench.Fig10(opts).Print(os.Stdout) })
	run("ablation", func() { bench.AblationBatching(opts, 128, 12).Print(os.Stdout) })
	runExtra("ablation-ikc", func() { bench.AblationIKC(opts, 96, 12).Print(os.Stdout) })
	runExtra("faults", func() { bench.Faults(opts, 64, 8).Print(os.Stdout) })
	runExtra("scale", func() { bench.Scale(opts, *scalekernels).Print(os.Stdout) })
	runExtra("churn", func() { bench.Churn(opts, 64, 8).Print(os.Stdout) })

	fmt.Printf("[%d experiments, %d workers, total %v]\n", ran, workers, total.Round(time.Millisecond))
	report.WallclockSummary(os.Stdout, 10)
	if *jsonPath != "" {
		if err := report.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(stderr, "writing %s: %v\n", *jsonPath, err)
			return 1
		}
		fmt.Printf("[wrote %d results to %s]\n", report.Len(), *jsonPath)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "creating %s: %v\n", *memprofile, err)
			return 1
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "writing heap profile: %v\n", err)
			return 1
		}
		fmt.Printf("[wrote heap profile to %s]\n", *memprofile)
	}
	return 0
}
