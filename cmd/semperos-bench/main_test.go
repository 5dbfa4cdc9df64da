package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsExit2: negative sizes and budgets, unknown modes and unknown
// flags are usage errors — a message on stderr and exit 2 before any
// simulation runs. A negative -scalekernels used to run the whole
// 1024-kernel grid and a negative -scalebudget meant "unlimited".
func TestBadFlagsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "scale", "-scalekernels", "-5"}, "-scalekernels must be non-negative"},
		{[]string{"-experiment", "scale", "-scalebudget", "-1s"}, "-scalebudget must be non-negative"},
		{[]string{"-parallel", "-1"}, "-parallel must be non-negative"},
		{[]string{"-shards", "-1"}, "-shards must be non-negative"},
		{[]string{"-quick", "-nosuchflag", "2"}, "flag provided but not defined: -nosuchflag"},
		{[]string{"-simmode", "parallel"}, "unknown -simmode"},
	} {
		var stderr bytes.Buffer
		if code := realMain(c.args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if !strings.Contains(stderr.String(), c.want) {
			t.Errorf("%v: stderr %q does not contain %q", c.args, stderr.String(), c.want)
		}
	}
}
