// Command semperos-sim runs one configurable SemperOS simulation — N
// instances of an application trace against a set of m3fs instances — and
// prints the measured statistics.
//
// Usage:
//
//	semperos-sim -kernels 32 -services 32 -instances 512 -app tar
//
// A usage error — an unknown flag or app, a positional argument, or sizes
// no machine can have — is one message on stderr and exit 2, before any
// machine is built; a simulation that fails exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("semperos-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernels := fs.Int("kernels", 8, "number of kernels (PE groups)")
	services := fs.Int("services", 8, "number of m3fs instances")
	instances := fs.Int("instances", 64, "number of application instances")
	app := fs.String("app", "tar", "application trace: tar, untar, find, sqlite, leveldb, postmark")
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2 // Parse already reported the error and the usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "semperos-sim: unexpected argument %q; every setting is a flag\n", fs.Arg(0))
		return 2
	}
	tr := trace.ByName(*app)
	if tr == nil {
		fmt.Fprintf(stderr, "semperos-sim: unknown app %q\n", *app)
		return 2
	}
	eng := sim.NewEngine()
	cfg := workload.Config{
		Kernels:   *kernels,
		Services:  *services,
		Instances: *instances,
		Trace:     tr,
		Engine:    eng,
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(stderr, "semperos-sim: %v\n", err)
		return 2
	}
	res, err := workload.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "semperos-sim: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "app:             %s\n", tr.Name)
	fmt.Fprintf(stdout, "kernels:         %d\n", *kernels)
	fmt.Fprintf(stdout, "services:        %d\n", *services)
	fmt.Fprintf(stdout, "instances:       %d\n", *instances)
	fmt.Fprintf(stdout, "makespan:        %.3f ms\n", float64(res.Makespan)/core.CyclesPerMicrosecond/1000)
	fmt.Fprintf(stdout, "mean runtime:    %.3f ms\n", float64(res.MeanRuntime())/core.CyclesPerMicrosecond/1000)
	fmt.Fprintf(stdout, "cap ops:         %d (%d per instance)\n", res.TotalCapOps, res.TotalCapOps/uint64(*instances))
	fmt.Fprintf(stdout, "cap ops/s:       %.0f\n", res.CapOpsPerSecond())
	fmt.Fprintf(stdout, "kernel syscalls: %d\n", res.Kernel.Syscalls)
	fmt.Fprintf(stdout, "inter-kernel:    %d sent\n", res.Kernel.IKCSent)
	fmt.Fprintf(stdout, "caps created:    %d, deleted: %d\n", res.Kernel.CapsCreated, res.Kernel.CapsDeleted)
	fmt.Fprintf(stdout, "engine events:   %d, %d of them resumed a proc\n", eng.Executed(), eng.Resumes())
	return 0
}
