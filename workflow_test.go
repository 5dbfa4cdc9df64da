package repro

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"regexp"
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

// TestWorkflowTestNamesExist: every `-fuzz Name`, and every name in a
// `-bench 'A|B|…'` alternation, of a `go test` line in the CI workflow is
// a `func Name(` in a test file of that line's packages. `go test` runs
// nothing and exits 0 for a name that matches no function ("no fuzz tests
// to fuzz", or no benchmark line at all), so a misspelt name would turn
// its step into one that checks nothing. A pattern that is no Go
// identifier, such as `-bench .`, is not a name and is skipped.
func TestWorkflowTestNamesExist(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile(`-(fuzz|bench) +('[^']*'|\S+)`)
	identRE := regexp.MustCompile(`^[A-Za-z_]\w*$`)
	checked := 0
	for n, line := range strings.Split(string(data), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		cmd := line[i:]
		var pkgs []string
		for _, f := range strings.Fields(cmd) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		for _, m := range flagRE.FindAllStringSubmatch(cmd, -1) {
			for _, name := range strings.Split(strings.Trim(m[2], "'"), "|") {
				name = strings.TrimSuffix(strings.TrimPrefix(name, "^"), "$")
				if !identRE.MatchString(name) {
					continue
				}
				checked++
				if !declared(t, pkgs, name) {
					t.Errorf("ci.yml:%d: -%s names %s, which no test file of %v declares", n+1, m[1], name, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml names no fuzz target or benchmark: the check read nothing")
	}
}

// declared reports whether a _test.go file of one of the package
// directories pkgs declares func name.
func declared(t *testing.T, pkgs []string, name string) bool {
	decl := []byte("func " + name + "(")
	for _, pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(src, decl) {
				return true
			}
		}
	}
	return false
}
