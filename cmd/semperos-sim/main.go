// Command semperos-sim runs one configurable SemperOS simulation — N
// instances of an application trace against a set of m3fs instances — and
// prints the measured statistics.
//
// Usage:
//
//	semperos-sim -kernels 32 -services 32 -instances 512 -app tar
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	kernels := flag.Int("kernels", 8, "number of kernels (PE groups)")
	services := flag.Int("services", 8, "number of m3fs instances")
	instances := flag.Int("instances", 64, "number of application instances")
	app := flag.String("app", "tar", "application trace: tar, untar, find, sqlite, leveldb, postmark")
	flag.Parse()

	tr := trace.ByName(*app)
	if tr == nil {
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}
	eng := sim.NewEngine()
	res, err := workload.Run(workload.Config{
		Kernels:   *kernels,
		Services:  *services,
		Instances: *instances,
		Trace:     tr,
		Engine:    eng,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("app:             %s\n", tr.Name)
	fmt.Printf("kernels:         %d\n", *kernels)
	fmt.Printf("services:        %d\n", *services)
	fmt.Printf("instances:       %d\n", *instances)
	fmt.Printf("makespan:        %.3f ms\n", float64(res.Makespan)/core.CyclesPerMicrosecond/1000)
	fmt.Printf("mean runtime:    %.3f ms\n", float64(res.MeanRuntime())/core.CyclesPerMicrosecond/1000)
	fmt.Printf("cap ops:         %d (%d per instance)\n", res.TotalCapOps, res.TotalCapOps/uint64(*instances))
	fmt.Printf("cap ops/s:       %.0f\n", res.CapOpsPerSecond())
	fmt.Printf("kernel syscalls: %d\n", res.Kernel.Syscalls)
	fmt.Printf("inter-kernel:    %d sent\n", res.Kernel.IKCSent)
	fmt.Printf("caps created:    %d, deleted: %d\n", res.Kernel.CapsCreated, res.Kernel.CapsDeleted)
	fmt.Printf("engine events:   %d, %d of them resumed a proc\n", eng.Executed(), eng.Resumes())
}
