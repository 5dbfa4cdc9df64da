package repro

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDesignNamesExist: every backticked span of DESIGN.md shaped like a Go
// name — an identifier, or identifiers joined by dots (`sim.Blocks.Take`),
// with or without a trailing `()` — names something in the tree: each of
// its parts is an identifier of some Go file of the repository, or a word
// of one of its string literals (a flag, a metric, an experiment). Comments
// do not count, since they are where a retired name lingers. File names
// (`kernel.go`) are not names. The one section headed "History" is exempt:
// it names what is gone on purpose.
func TestDesignNamesExist(t *testing.T) {
	known := treeWords(t)
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	nameShaped := regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?$`)
	file := regexp.MustCompile(`\.(go|mod|sum|md|json|ndjson|yml|yaml|sh|txt|prof)$`)
	span := regexp.MustCompile("`([^`\n]+)`")
	fenced, history := false, false
	for n, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if strings.HasPrefix(line, "#") && !fenced {
			history = strings.TrimSpace(strings.TrimLeft(line, "#")) == "History"
		}
		if fenced || history {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			name := m[1]
			if !nameShaped.MatchString(name) || file.MatchString(name) {
				continue
			}
			for _, part := range strings.Split(strings.TrimSuffix(name, "()"), ".") {
				if !known[part] {
					t.Errorf("DESIGN.md:%d: `%s` names nothing in the tree (%q)", n+1, name, part)
					break
				}
			}
		}
	}
}

// treeWords returns the identifiers of every Go file of the repository and
// the identifier-shaped words of its string literals.
func treeWords(t *testing.T) map[string]bool {
	words := map[string]bool{}
	word := regexp.MustCompile(`[A-Za-z_]\w*`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			switch tok {
			case token.EOF:
				return nil
			case token.IDENT:
				words[lit] = true
			case token.STRING:
				if v, err := strconv.Unquote(lit); err == nil {
					for _, w := range word.FindAllString(v, -1) {
						words[w] = true
					}
				}
			default:
				if tok.IsKeyword() {
					words[lit] = true
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return words
}
