package main

import (
	"encoding/json"
	"os"
	"time"
)

// The tracer records spans from the benchmark's own call sites: one host
// span around every call into a layer, and one simulated-time span per
// capability operation. Nothing inside the program under test is
// instrumented. A nil *tracer records nothing, so an untraced pass pays
// one nil check per call site.

// span is one recorded interval. Parent is the index of the enclosing span
// of the same pass, -1 for a pass's root.
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Pass   int    `json:"pass"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Span kinds. Host spans carry nanoseconds since the tracer was created and
// nest strictly, so self times can be computed from them. Task spans are the
// harness tasks of one experiment: their wall clocks are known but not when
// they started, and two run at a time, so they take no part in self times.
// Sim spans carry simulated cycles.
const (
	spanHost = "host"
	spanTask = "task"
	spanSim  = "sim"
)

type tracer struct {
	t0    time.Time
	pass  int
	spans []span
	// ops holds the simulated spans in a compact form: a traced pass files
	// tens of thousands of them, and what filing them costs the host is
	// charged to the pass.
	ops []opSpan
}

// opSpan is one capability operation in simulated cycles.
type opSpan struct {
	kind       opKind
	pass       int32
	parent     int32
	start, end uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a host span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Kind: spanHost, Pass: t.pass, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// task records one harness task of the experiment span parent; it is placed
// at the parent's start for want of its own.
func (t *tracer) task(name string, parent int, d time.Duration) {
	if t == nil {
		return
	}
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Kind: spanTask, Pass: t.pass, Parent: parent, Start: start, End: start + int64(d)})
}

// reserve makes room for n more capability operations, so that filing them
// does not grow the slice in the middle of a pass.
func (t *tracer) reserve(n int) {
	if t != nil && cap(t.ops)-len(t.ops) < n {
		t.ops = append(make([]opSpan, 0, len(t.ops)+n), t.ops...)
	}
}

// simOp records one capability operation in simulated cycles.
func (t *tracer) simOp(kind opKind, parent int, start, end uint64) {
	if t == nil {
		return
	}
	t.ops = append(t.ops, opSpan{kind, int32(t.pass), int32(parent), start, end})
}

// selfTimes sums, per span name, the host time of one pass that no child
// span covers: a span's self time is its duration minus its host children's.
func (t *tracer) selfTimes(pass int) map[string]time.Duration {
	children := map[int]int64{}
	for _, s := range t.spans {
		if s.Pass == pass && s.Kind == spanHost && s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		if s.Pass == pass && s.Kind == spanHost {
			self[s.Name] += time.Duration(s.End - s.Start - children[i])
		}
	}
	return self
}

// durations sums, per span name, the duration of one pass's host spans.
func (t *tracer) durations(pass int) map[string]time.Duration {
	d := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Pass == pass && s.Kind == spanHost {
			d[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// writeFile writes every span, and each pass's self times in nanoseconds by
// span name, as one JSON document.
func (t *tracer) writeFile(path string) error {
	all := append([]span(nil), t.spans...)
	for _, op := range t.ops {
		all = append(all, span{
			Name: opKindNames[op.kind], Kind: spanSim, Pass: int(op.pass), Parent: int(op.parent),
			Start: int64(op.start), End: int64(op.end),
		})
	}
	self := make([]map[string]time.Duration, t.pass+1)
	for pass := range self {
		self[pass] = t.selfTimes(pass)
	}
	data, err := json.Marshal(struct {
		Spans  []span                     `json:"spans"`
		SelfNS []map[string]time.Duration `json:"self_ns"`
	}{all, self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
