package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRealMain: usage errors — a positional argument, sizes no machine can
// have, an unknown app — are one line on stderr and exit 2, before any
// machine is built; an unknown flag is the flag package's report and exit 2.
// None prints on stdout. A small run exits 0 and prints its statistics.
func TestRealMain(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string // the line stderr must hold exactly; "" for none
	}{
		{[]string{"tar"}, 2, `semperos-sim: unexpected argument "tar"; every setting is a flag`},
		{[]string{"-app", "find", "64"}, 2, `semperos-sim: unexpected argument "64"; every setting is a flag`},
		{[]string{"-instances", "0"}, 2, "semperos-sim: workload: kernels, services, instances must be positive"},
		{[]string{"-kernels", "-3"}, 2, "semperos-sim: workload: kernels, services, instances must be positive"},
		{[]string{"-kernels", "100"}, 2, "semperos-sim: core: 100 kernels exceed the maximum of 64"},
		{[]string{"-kernels", "1", "-instances", "400"}, 2, "semperos-sim: core: 408 PEs per kernel exceed the maximum of 192"},
		{[]string{"-kernels", "3", "-services", "1", "-instances", "9223372036854775805"}, 2, "semperos-sim: workload: 9223372036854775805 instances exceed the DDL key space of 4096"},
		{[]string{"-kernels", "3", "-services", "2", "-instances", "9223372036854775807"}, 2, "semperos-sim: workload: 9223372036854775807 instances exceed the DDL key space of 4096"},
		{[]string{"-kernels", "3", "-services", "9223372036854775807", "-instances", "2"}, 2, "semperos-sim: workload: 9223372036854775807 services exceed the DDL key space of 4096"},
		{[]string{"-app", "nosuchapp"}, 2, `semperos-sim: unknown app "nosuchapp"`},
		{[]string{"-kernels", "2", "-services", "1", "-instances", "2", "-app", "find"}, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if want := c.stderr + "\n"; c.stderr == "" && stderr.Len() > 0 || c.stderr != "" && stderr.String() != want {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr.String(), c.stderr)
		}
		if ran := strings.Contains(stdout.String(), "cap ops:"); ran != (c.code == 0) {
			t.Errorf("%v: stdout %q", c.args, stdout.String())
		}
	}

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 || stdout.Len() > 0 ||
		!strings.HasPrefix(stderr.String(), "flag provided but not defined: -nosuchflag\n") {
		t.Errorf("unknown flag: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
