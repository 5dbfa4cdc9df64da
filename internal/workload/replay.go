// Package workload runs the paper's application-level experiments: it
// places N instances of a traced application plus a set of m3fs service
// instances onto a SemperOS machine, replays the traces, and computes the
// paper's metrics (parallel efficiency §5.3.1, system efficiency §5.3.2,
// and the Nginx requests-per-second server benchmark §5.3.3, whose servers
// replay a request trace per request).
package workload

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// InstanceResult is the outcome of replaying one application instance.
type InstanceResult struct {
	VPE    int
	Start  sim.Time // trace replay begin (after spawn and dial setup)
	End    sim.Time
	CapOps uint64
	Err    error
}

// Runtime returns the instance's replay duration.
func (r InstanceResult) Runtime() sim.Duration { return r.End - r.Start }

// Replay executes the trace on a VPE against the named service.
func Replay(v *core.VPE, p *sim.Proc, tr *trace.Trace, service, prefix string) error {
	client, err := m3fs.Dial(p, v, service)
	if err != nil {
		return fmt.Errorf("replay %s: %w", tr.Name, err)
	}
	client.Prefix = prefix
	return replayOps(client, p, tr, make([]*m3fs.File, slots(tr)))
}

// replayOps plays tr's operations once through client; files holds the open
// files by trace slot.
func replayOps(client *m3fs.Client, p *sim.Proc, tr *trace.Trace, files []*m3fs.File) error {
	for i := range tr.Ops {
		op := &tr.Ops[i]
		if err := replayOp(client, p, files, op); err != nil {
			return fmt.Errorf("replay %s op %d (%d): %w", tr.Name, i, op.Kind, err)
		}
	}
	return nil
}

// slots returns how many file slots tr's operations name: its highest
// slot, plus one.
func slots(tr *trace.Trace) int {
	n := 0
	for i := range tr.Ops {
		n = max(n, tr.Ops[i].Slot+1)
	}
	return n
}

func replayOp(c *m3fs.Client, p *sim.Proc, files []*m3fs.File, op *trace.Op) error {
	switch op.Kind {
	case trace.OpCompute:
		p.Sleep(op.Cycles)
	case trace.OpOpen:
		f, err := c.Open(p, op.Path, op.Create, op.Trunc)
		if err != nil {
			return err
		}
		files[op.Slot] = f
	case trace.OpRead:
		f := files[op.Slot]
		if f == nil {
			return core.ErrBadArgs
		}
		if _, err := f.Read(p, op.Bytes); err != nil {
			return err
		}
	case trace.OpWrite:
		f := files[op.Slot]
		if f == nil {
			return core.ErrBadArgs
		}
		if err := f.Write(p, op.Bytes); err != nil {
			return err
		}
	case trace.OpSeek:
		f := files[op.Slot]
		if f == nil {
			return core.ErrBadArgs
		}
		f.Seek(op.Bytes)
	case trace.OpClose:
		f := files[op.Slot]
		if f == nil {
			return core.ErrBadArgs
		}
		files[op.Slot] = nil
		return f.Close(p, op.Revoke)
	case trace.OpStat:
		if _, err := c.Stat(p, op.Path); err != nil && err != core.ErrNoSuchCap {
			return err
		}
	case trace.OpMkdir:
		return c.Mkdir(p, op.Path)
	case trace.OpUnlink:
		return c.Unlink(p, op.Path)
	case trace.OpReaddir:
		_, err := c.Readdir(p, op.Path)
		return err
	default:
		return core.ErrBadArgs
	}
	return nil
}

// Preload populates one filesystem instance with the input files for a set
// of instance prefixes. It builds no paths: each file is created by walking
// its prefix and its trace path in turn, from blocks sized to the whole
// preload, in directories made with room for their entries.
func Preload(tr *trace.Trace, prefixes []string) func(*m3fs.FS) {
	top, entries := dirEntries(tr)
	return func(fs *m3fs.FS) {
		extents := 0
		for _, f := range tr.Files {
			extents += fs.ExtentsFor(f.Size)
		}
		fs.Reserve(len(prefixes)*len(tr.Files), len(prefixes)*extents)
		for _, prefix := range prefixes {
			fs.MustMkdirAllIn("", prefix, top)
			for i, d := range tr.Dirs {
				fs.MustMkdirAllIn(prefix, d, entries[i])
			}
			for _, f := range tr.Files {
				fs.MustCreateIn(prefix, f.Path, f.Size)
			}
		}
	}
}

// dirEntries counts the preloaded entries of an instance's directory (top)
// and of each of tr.Dirs.
func dirEntries(tr *trace.Trace) (top int, entries []int) {
	entries = make([]int, len(tr.Dirs))
	count := func(path string) {
		i := strings.LastIndexByte(path, '/')
		if i < 0 {
			top++
			return
		}
		for j, d := range tr.Dirs {
			if d == path[:i] {
				entries[j]++
			}
		}
	}
	for _, d := range tr.Dirs {
		count(d)
	}
	for _, f := range tr.Files {
		count(f.Path)
	}
	return top, entries
}
