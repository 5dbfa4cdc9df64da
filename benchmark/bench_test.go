package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestScriptIsAPureFunctionOfTheSeed(t *testing.T) {
	a, b := genStorm(paperStorm, 7), genStorm(paperStorm, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two scripts")
	}
	if reflect.DeepEqual(a, genStorm(paperStorm, 8)) {
		t.Fatal("seeds 7 and 8 gave the same script")
	}
	if got, want := paperStorm.ops(), 59392; got != want {
		t.Fatalf("paper-size script has %d operations, want %d", got, want)
	}
	var byKind int
	for _, n := range paperStorm.opsByKind() {
		byKind += n
	}
	if byKind != paperStorm.opsPerClientEpoch() {
		t.Fatalf("opsByKind sums to %d, opsPerClientEpoch is %d", byKind, paperStorm.opsPerClientEpoch())
	}
}

func TestScriptMixesLocalAndSpanningPeers(t *testing.T) {
	shape := paperStorm
	sc := genStorm(shape, 3)
	if len(sc.Steps) != shape.Epochs {
		t.Fatalf("%d epochs, want %d", len(sc.Steps), shape.Epochs)
	}
	check := func(c int, peers []int, want int) {
		t.Helper()
		if len(peers) != want {
			t.Fatalf("client %d addresses %d peers, want %d", c, len(peers), want)
		}
		seen := map[int]bool{c: true}
		for i, peer := range peers {
			if seen[peer] {
				t.Fatalf("client %d: peer %d is itself or a repeat in %v", c, peer, peers)
			}
			seen[peer] = true
			local := peer/shape.PerGroup == c/shape.PerGroup
			if wantLocal := i < want/2; local != wantLocal {
				t.Fatalf("client %d: peer %d of %v local=%v, want %v", c, i, peers, local, wantLocal)
			}
		}
	}
	for _, epoch := range sc.Steps {
		for c, step := range epoch {
			check(c, step.ObtainFrom, shape.Obtains)
			check(c, step.DelegateTo, shape.Delegates)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(vs, n=4) of the same lists.
	for _, tc := range []struct {
		vs         []float64
		q1, m2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{2, 4}, 1.5, 3, 4.5},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, m2, q3 := quartiles(tc.vs)
		if q1 != tc.q1 || m2 != tc.m2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.vs, q1, m2, q3, tc.q1, tc.m2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	vs := make([]uint64, 200)
	for i := range vs {
		vs[i] = uint64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want uint64
	}{{50, 100}, {99, 198}, {99.9, 200}, {100, 200}, {0.1, 1}} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(1..200, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestSelfTimesSumToThePass(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{Name: "pass", Kind: spanHost, Parent: -1, Start: 0, End: 100},
		{Name: "core.build", Kind: spanHost, Parent: 0, Start: 5, End: 25},
		{Name: "core.run", Kind: spanHost, Parent: 0, Start: 25, End: 95},
		{Name: "task", Kind: spanTask, Parent: 2, Start: 25, End: 500},
	}
	self := tr.selfTimes(0)
	if self["pass"] != 10 || self["core.build"] != 20 || self["core.run"] != 70 {
		t.Fatalf("self times %v", self)
	}
}

// tinyWorkloads are the five workloads shrunk until a pass takes
// milliseconds; everything but the size is the code the benchmark runs.
func tinyWorkloads() map[string]workload {
	storm := stormShape{Kernels: 2, PerGroup: 4, Epochs: 2, Obtains: 2, PerObtain: 1, Delegates: 2}
	return map[string]workload{
		"apps":           &appsWorkload{shape: appsShape{Kernels: 2, Services: 2, Instances: 4}},
		"capstorm":       &stormWorkload{shape: storm},
		"capstorm-lossy": &stormWorkload{shape: storm, lossy: true},
		"scale":          &scaleWorkload{shape: scaleShape{Kernels: 4, Clients: 8, CapsPer: 4}},
		"quick-sweep":    &sweepWorkload{experiments: experiments[:1]},
	}
}

func TestTinyWorkloadsAreCorrectAndReproducible(t *testing.T) {
	tiny := tinyWorkloads()
	for _, def := range workloads {
		w := tiny[def.Name]
		if w == nil {
			t.Errorf("%s has no tiny form", def.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			// Seconds 0: the two passes every run makes.
			rec := record{Workload: def.Name, Seed: 5, Traced: traced, Env: environment{Setups: 1}}
			var tr *tracer
			want := map[string]bool{}
			for _, d := range endToEnd {
				want[d.Name] = !traced
			}
			if traced {
				tr = newTracer()
				for _, d := range perLayer {
					want[d.Name] = !strings.Contains(d.Name, ".probe_")
				}
			}
			values, err := measure(&rec, w, tr)
			if err != nil {
				t.Fatalf("%s: %v", def.Name, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 || rec.FailShare != 0 {
				t.Errorf("%s: correct=%v, %d of %d failed: %v", def.Name, rec.Correct, rec.Failed, rec.Attempted, rec.Problems)
			}
			if rec.Env.Passes != 2 || rec.SimDigest == "" {
				t.Errorf("%s: %d passes, digest %q", def.Name, rec.Env.Passes, rec.SimDigest)
			}
			for name, wanted := range want {
				if _, ok := values[name]; ok != wanted {
					t.Errorf("%s, traced %v: metric %s measured=%v, want %v", def.Name, traced, name, ok, wanted)
				}
			}
			if !traced {
				for name, v := range values {
					// The tiny sweep is Table 3 alone: no Table 4 rows to rate.
					if v <= 0 && def.Name != "quick-sweep" {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", def.Name, name, v)
					}
				}
				continue
			}
			var sum int64
			for _, d := range tr.selfTimes(0) {
				sum += int64(d)
			}
			if root := tr.spans[0]; sum != root.End-root.Start {
				t.Errorf("%s: self times sum to %d ns, the pass took %d", def.Name, sum, root.End-root.Start)
			}
		}
	}
}

func TestProbesMeasureEveryProbeMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the probes take a few seconds")
	}
	probes := runProbes()
	for _, d := range perLayer {
		if _, ok := probes[d.Name]; ok != strings.Contains(d.Name, ".probe_") {
			t.Errorf("%s: measured by the probes: %v", d.Name, ok)
		}
		delete(probes, d.Name)
	}
	for name := range probes {
		t.Errorf("probe %s is not in the table", name)
	}
}

func TestDigestMismatchFailsEveryOperation(t *testing.T) {
	w := &flakyWorkload{inner: tinyWorkloads()["scale"]}
	rec := record{Workload: "scale", Env: environment{Setups: 1}}
	if _, err := measure(&rec, w, nil); err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted/2 {
		t.Fatalf("correct=%v, %d of %d failed; want one pass of two failed", rec.Correct, rec.Failed, rec.Attempted)
	}
}

// flakyWorkload changes the digest of its second timed pass.
type flakyWorkload struct {
	inner  workload
	passes int
}

func (w *flakyWorkload) setup(seed uint64) (heapReading, error) { return w.inner.setup(seed) }

func (w *flakyWorkload) pass(t *tracer, parent int, host *hostClock) passResult {
	res := w.inner.pass(t, parent, host)
	if w.passes++; w.passes == 2 {
		res.Sim.Digest = "drifted"
	}
	return res
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the allowed form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.Name)
		if got := file.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d is %q in the file, %q in the code (or their reasons differ)", i, got.Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: reason is %d characters, limit 200 on one line", w.Name, len(w.Why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the file, %d in the code", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		checkName(d.Name)
		got := file.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d is %+v in the file, %+v in the code", i, got, d)
		}
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || d.Layer != "" {
			t.Errorf("%s: unit %q, bound %v, layer %q", d.Name, d.Unit, d.Bound, d.Layer)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in the file, %d in the code", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name)
		got := file.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer metric %d is %+v in the file, %+v in the code", i, got, d)
		}
		if !unit.MatchString(d.Unit) || d.Bound != 0 || d.Moves == "" || !strings.HasPrefix(d.Name, d.Layer+".") {
			t.Errorf("%s: unit %q, bound %v, layer %q, moves %q", d.Name, d.Unit, d.Bound, d.Layer, d.Moves)
		}
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", file.Paths)
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{Name: "wall_s", Better: lower, Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, tc := range []struct {
		after []float64
		want  string
	}{
		{[]float64{1.01, 1.00, 1.02, 0.99, 1.00}, "unchanged"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, "regressed"},
		{[]float64{0.80, 0.81, 0.79, 0.80, 0.82}, "improved"},
		{[]float64{0.70, 1.30, 0.90, 1.10, 1.00}, "unresolved"},
	} {
		if got, _ := verdict(def, steady, tc.after); got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.after, got, tc.want)
		}
	}
	up := metricDef{Name: "sim_capops_per_s", Better: higher, Bound: 0.02}
	if got, _ := verdict(up, []float64{100}, []float64{90}); got != "regressed" {
		t.Errorf("a higher-is-better metric that fell is %s, want regressed", got)
	}
}

func TestCompareRefusesDifferentBudgets(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, procs int) string {
		rec := record{Schema: recordSchema, Workload: "scale", Correct: true, Env: environment{GOMAXPROCS: procs, Seconds: 12}}
		rec.Metrics = map[string]metricValue{}
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		path := filepath.Join(dir, name)
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", 2), write("b", 2), write("c", 1)
	var out, errOut strings.Builder
	if code := compareFiles(&out, &errOut, a, b); code != 0 || !strings.Contains(out.String(), "unchanged") {
		t.Errorf("equal runs: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if code := compareFiles(&out, &errOut, a, c); code != 2 || !strings.Contains(errOut.String(), "GOMAXPROCS") {
		t.Errorf("runs under GOMAXPROCS 2 and 1: exit %d, want 2\n%s", code, errOut.String())
	}
}

// A measurement is the sum of its segments without the reference loop's own
// time, and what the loop allocated inside it is counted apart.
func TestHostClockKeepsTheReferenceLoopOutOfTheMeasurement(t *testing.T) {
	tr := newTracer()
	clock := newHostClock()
	began := time.Now()
	clock.start()
	root := tr.begin("pass", -1)
	time.Sleep(2 * time.Millisecond)
	clock.lap(tr, root)
	time.Sleep(2 * time.Millisecond)
	tr.end(root)
	inLaps := clock.mallocs
	measured, speed := clock.stop()
	elapsed := time.Since(began)

	reference := tr.durations(0)["harness.reference"]
	if reference <= 0 || inLaps == 0 {
		t.Fatalf("the lap recorded a reference span of %v and %d allocations", reference, inLaps)
	}
	if measured < 4*time.Millisecond || measured > elapsed-reference {
		t.Errorf("measured %v of %v elapsed, %v of them in the lap's reference loop", measured, elapsed, reference)
	}
	if clock.mallocs <= inLaps {
		t.Errorf("stop took no reading: %d allocations after it, %d before", clock.mallocs, inLaps)
	}
	// Whatever this machine's speed, the factor is refNominal over a time
	// the loop can take: positive, and within a factor 20 of the nominal.
	if speed < 0.05 || speed > 20 {
		t.Errorf("speed factor %v", speed)
	}
}

func TestOnlyTheSweepRunsOnTwoThreads(t *testing.T) {
	for _, w := range workloads {
		want := 1
		if w.Name == "quick-sweep" {
			want = sweepWorkers
		}
		if w.Procs != want {
			t.Errorf("%s is pinned to GOMAXPROCS %d, want %d", w.Name, w.Procs, want)
		}
	}
}
