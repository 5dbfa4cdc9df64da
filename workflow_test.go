package repro

import (
	"bufio"
	"os"
	"strings"
	"testing"
)

// TestWorkflowScalarsParse: no `key: value` line of the CI workflow has a
// plain (unquoted) value holding ": " or " #". YAML reads the first as a
// second mapping on one line, so the file does not parse and no step runs;
// it reads the second as the start of a comment, so the value is cut
// short. Block scalars (`run: |`), whose lines are shell, are skipped. The
// test reads the file line by line, with no YAML module.
func TestWorkflowScalarsParse(t *testing.T) {
	f, err := os.Open(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	block := -1 // indent of the key whose block scalar is being read, or -1
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		body := strings.TrimLeft(line, " ")
		indent := len(line) - len(body)
		if block >= 0 && (body == "" || indent > block) {
			continue
		}
		block = -1
		body = strings.TrimPrefix(body, "- ")
		if strings.HasPrefix(body, "#") {
			continue
		}
		i := strings.Index(body, ": ")
		if i < 0 {
			continue
		}
		value := strings.TrimLeft(body[i+2:], " ")
		switch {
		case value == "", strings.ContainsAny(value[:1], `"'[{`):
		case strings.ContainsAny(value[:1], "|>"):
			block = indent
		case strings.Contains(value, ": "), strings.Contains(value, " #"):
			t.Errorf("ci.yml:%d: the plain value %q holds %q or %q; quote it", n, value, ": ", " #")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}
