// Command semperos-trace inspects the synthetic application traces used by
// the evaluation: the operation mix, capability-operation budget and image
// footprint of each.
//
// Usage:
//
//	semperos-trace           # summary of all traces
//	semperos-trace -app tar  # full op listing for one trace
//
// A usage error — an unknown flag or app, or a positional argument — is one
// message on stderr and exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/m3fs"
	"repro/internal/trace"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("semperos-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "print the full op list of one trace")
	switch err := fs.Parse(args); {
	case err == flag.ErrHelp:
		return 0
	case err != nil:
		return 2 // Parse already reported the error and the usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "semperos-trace: unexpected argument %q; name a trace with -app\n", fs.Arg(0))
		return 2
	}
	if *app != "" {
		tr := trace.ByName(*app)
		if tr == nil {
			fmt.Fprintf(stderr, "semperos-trace: unknown app %q\n", *app)
			return 2
		}
		dump(stdout, tr)
		return 0
	}
	fmt.Fprintln(stdout, "trace      ops  capops  runtime(ms)  footprint(MiB)")
	for _, tr := range trace.All() {
		fmt.Fprintf(stdout, "%-9s %5d  %6d  %11.3f  %14.1f\n",
			tr.Name, len(tr.Ops), tr.WantCapOps,
			float64(tr.TargetRuntime)/core.CyclesPerMicrosecond/1000,
			float64(tr.Footprint(m3fs.ExtentBytes))/(1<<20))
	}
	return 0
}

var kindNames = map[trace.OpKind]string{
	trace.OpCompute: "compute",
	trace.OpOpen:    "open",
	trace.OpRead:    "read",
	trace.OpWrite:   "write",
	trace.OpSeek:    "seek",
	trace.OpClose:   "close",
	trace.OpStat:    "stat",
	trace.OpMkdir:   "mkdir",
	trace.OpUnlink:  "unlink",
	trace.OpReaddir: "readdir",
}

func dump(w io.Writer, tr *trace.Trace) {
	fmt.Fprintf(w, "# %s: %d ops, %d cap ops\n", tr.Name, len(tr.Ops), tr.WantCapOps)
	for _, f := range tr.Files {
		fmt.Fprintf(w, "preload %-24s %d bytes\n", f.Path, f.Size)
	}
	for i, op := range tr.Ops {
		fmt.Fprintf(w, "%4d  %-8s", i, kindNames[op.Kind])
		if op.Path != "" {
			fmt.Fprintf(w, "  %-24s", op.Path)
		}
		if op.Kind == trace.OpOpen {
			fmt.Fprintf(w, "  slot=%d create=%v trunc=%v", op.Slot, op.Create, op.Trunc)
		}
		if op.Kind == trace.OpRead || op.Kind == trace.OpWrite || op.Kind == trace.OpSeek {
			fmt.Fprintf(w, "  slot=%d bytes=%d", op.Slot, op.Bytes)
		}
		if op.Kind == trace.OpClose {
			fmt.Fprintf(w, "  slot=%d revoke=%v", op.Slot, op.Revoke)
		}
		if op.Kind == trace.OpCompute {
			fmt.Fprintf(w, "  %d cycles", op.Cycles)
		}
		fmt.Fprintln(w)
	}
}
