package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

func row(exp string, kernels int, m bench.Metrics) bench.Result {
	return bench.Result{Experiment: exp, Config: bench.ExpConfig{Kernels: kernels, Instances: 8}, Metrics: m, WallclockNS: int64(kernels)}
}

// baseline is a report with a duplicate-key pair (one configuration run
// twice, as a sweep's shared baseline is) and a fault row.
func baseline() []bench.Result {
	return []bench.Result{
		row("table3/exchange-local", 1, bench.Metrics{Cycles: 3597}),
		row("fig6/tar", 4, bench.Metrics{Cycles: 100, Efficiency: 0.5, CapOps: 21}),
		row("fig6/tar", 4, bench.Metrics{Cycles: 100, Efficiency: 0.5, CapOps: 21}),
		row("faults/exchange", 8, bench.Metrics{Cycles: 900, LostMsgs: 3, Retries: 4, DupDrops: 1, Completed: 1}),
	}
}

func writeReport(t *testing.T, name string, rows []bench.Result) string {
	t.Helper()
	r := bench.NewReport(true, 1)
	r.Add(rows...)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// compare runs the tool on two reports and returns exit code and output.
func compare(t *testing.T, base, fresh []bench.Result, flags ...string) (int, string, string) {
	t.Helper()
	args := append(flags, writeReport(t, "base.json", base), writeReport(t, "fresh.json", fresh))
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestIdenticalCountsComparedRows(t *testing.T) {
	fresh := baseline()
	for i := range fresh {
		fresh[i].WallclockNS += 1000 // host readings are not compared
	}
	code, out, _ := compare(t, baseline(), fresh)
	// Four rows under three keys: the line counts what was compared.
	if code != 0 || !strings.Contains(out, "bench-compare: 4 triples identical") {
		t.Fatalf("exit %d, output %q; want 0 and 4 triples identical", code, out)
	}
}

func TestDrift(t *testing.T) {
	changed := baseline()
	changed[2].Metrics.Cycles = 101 // the second run of the duplicated key
	missing := baseline()[1:]
	extra := append(baseline(), row("ablation-ikc/exchange", 13, bench.Metrics{Cycles: 7}))
	recount := append(baseline(), baseline()[1])
	for _, c := range []struct {
		name        string
		fresh       []bench.Result
		flags       []string
		code        int
		want, never string
	}{
		{"changed", changed, nil, 1, "CHANGED  fig6/tar", "CHANGED  table3"},
		{"missing", missing, nil, 1, "MISSING  table3/exchange-local", "CHANGED"},
		{"new", extra, nil, 1, "NEW      ablation-ikc/exchange", "identical"},
		{"allow-new", extra, []string{"-allow-new"}, 0, "new      ablation-ikc/exchange", "drifting"},
		{"count", recount, nil, 1, "COUNT    fig6/tar", "CHANGED"},
	} {
		code, out, _ := compare(t, baseline(), c.fresh, c.flags...)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, code, c.code, out)
		}
		if !strings.Contains(out, c.want) || strings.Contains(out, c.never) {
			t.Errorf("%s: output wants %q and never %q:\n%s", c.name, c.want, c.never, out)
		}
	}
	// A single changed row is one drifting triple, and -allow-new still
	// compares the rows the baseline knows.
	if _, out, _ := compare(t, baseline(), changed); !strings.Contains(out, "1 drifting triple(s)") {
		t.Errorf("changed: summary does not count one drift:\n%s", out)
	}
	if _, out, _ := compare(t, baseline(), extra, "-allow-new"); !strings.Contains(out, "4 triples identical") {
		t.Errorf("allow-new: summary does not count the four compared rows:\n%s", out)
	}
}

// TestNothingComparedFails: an empty baseline side — CI's race smoke is the
// baseline of its compare — agrees with every row under -allow-new, so a
// compare that matched no row fails instead of passing on nothing. -delta
// only describes, and still exits 0.
func TestNothingComparedFails(t *testing.T) {
	code, out, _ := compare(t, nil, baseline(), "-allow-new")
	if code != 1 || !strings.Contains(out, "bench-compare: no triple compared") || strings.Contains(out, "identical") {
		t.Errorf("-allow-new with an empty baseline: exit %d, want 1 and no triple compared:\n%s", code, out)
	}
	if code, out, _ := compare(t, nil, nil); code != 1 {
		t.Errorf("two empty reports: exit %d, want 1:\n%s", code, out)
	}
	if code, out, _ := compare(t, nil, baseline(), "-delta"); code != 0 {
		t.Errorf("-delta with an empty baseline: exit %d, want 0:\n%s", code, out)
	}
}

func TestDeltaPrintsEveryDifferingField(t *testing.T) {
	fresh := baseline()
	fresh[1].Metrics.Cycles = 110
	fresh[3].Metrics.LostMsgs, fresh[3].Metrics.Retries = 5, 9
	fresh[3].Metrics.DupDrops, fresh[3].Metrics.Completed = 2, 0.75
	code, out, _ := compare(t, baseline(), fresh, "-delta")
	if code != 0 {
		t.Fatalf("-delta exit %d, want 0\n%s", code, out)
	}
	for _, want := range []string{
		"delta    fig6/tar {Kernels:4 Services:0 Instances:8}: cycles 100 -> 110 (+10.00%)\n",
		// A faults-only delta: no cycles, no messages, every field named.
		"delta    faults/exchange {Kernels:8 Services:0 Instances:8}: lostmsgs 3 -> 5 retries 4 -> 9 dupdrops 1 -> 2 completed 1.0000 -> 0.7500\n",
		"bench-compare: 2 identical, 2 changed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-delta output lacks %q:\n%s", want, out)
		}
	}
	// Rows unique to either side are listed, and the exit code stays 0.
	code, out, _ = compare(t, baseline(), append(baseline()[1:], row("scale/revoke", 64, bench.Metrics{Cycles: 1})), "-delta")
	if code != 0 || !strings.Contains(out, "only-old table3/exchange-local") || !strings.Contains(out, "only-new scale/revoke") {
		t.Errorf("-delta exit %d, want 0 with only-old and only-new rows:\n%s", code, out)
	}
}

func TestUsageAndReadErrorsExit2(t *testing.T) {
	good := writeReport(t, "good.json", baseline())
	notJSON := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(notJSON, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	otherSchema := filepath.Join(t.TempDir(), "schema.json")
	if err := os.WriteFile(otherSchema, []byte(`{"schema":"semperos-bench/v0","results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{good}, "usage: bench-compare"},
		{[]string{"-nosuchflag", good, good}, "flag provided but not defined"},
		{[]string{good, filepath.Join(t.TempDir(), "absent.json")}, "no such file"},
		{[]string{notJSON, good}, "bad.json"},
		{[]string{"-delta", good, otherSchema}, `schema "semperos-bench/v0"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("%v: stderr %q lacks %q, or stdout %q is not empty", c.args, stderr.String(), c.want, stdout.String())
		}
	}
}
