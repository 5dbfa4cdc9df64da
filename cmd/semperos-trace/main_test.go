package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRealMain: a positional argument and an unknown app are one line on
// stderr and exit 2; an unknown flag is the flag package's report and exit
// 2. None prints on stdout. No argument prints the summary of every trace,
// and -app the op listing of one.
func TestRealMain(t *testing.T) {
	for _, c := range []struct {
		args   []string
		code   int
		stderr string // the line stderr must hold exactly; "" for none
		stdout string // a prefix of stdout; "" for no output
	}{
		{[]string{"tar"}, 2, `semperos-trace: unexpected argument "tar"; name a trace with -app`, ""},
		{[]string{"-app", "find", "tar"}, 2, `semperos-trace: unexpected argument "tar"; name a trace with -app`, ""},
		{[]string{"-app", "nosuchapp"}, 2, `semperos-trace: unknown app "nosuchapp"`, ""},
		{nil, 0, "", "trace      ops  capops  runtime(ms)  footprint(MiB)\ntar "},
		{[]string{"-app", "find"}, 0, "", "# find: "},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if want := c.stderr + "\n"; c.stderr == "" && stderr.Len() > 0 || c.stderr != "" && stderr.String() != want {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr.String(), c.stderr)
		}
		if c.stdout == "" && stdout.Len() > 0 || !strings.HasPrefix(stdout.String(), c.stdout) {
			t.Errorf("%v: stdout %q, want it to start with %q", c.args, stdout.String(), c.stdout)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 || stdout.Len() > 0 ||
		!strings.HasPrefix(stderr.String(), "flag provided but not defined: -nosuchflag\n") {
		t.Errorf("unknown flag: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
