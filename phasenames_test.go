package tmedb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPhaseNamesDocumented checks that DESIGN.md §8's phase table lists
// exactly the phase names the module's non-test code opens with
// StartPhase("…"): every opened name is in the table, and every name
// in the table is opened somewhere. The table so stays the one place a
// reader finds each phase's parent and owner, with no row for a phase
// that no longer exists. Test files, testdata fixtures and nested
// modules (bench/) are skipped.
func TestPhaseNamesDocumented(t *testing.T) {
	documented := designPhaseNames(t)
	used := map[string]string{} // phase name -> first file opening it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "StartPhase" {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Errorf("%s: %v", fset.Position(lit.Pos()), err)
				return true
			}
			if _, seen := used[name]; !seen {
				used[name] = fset.Position(lit.Pos()).String()
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(used) == 0 {
		t.Fatal("no StartPhase literals found")
	}
	var missing []string
	for name, at := range used {
		if !documented[name] {
			missing = append(missing, name+" ("+at+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("phase %s is missing from the DESIGN.md §8 phase table", m)
	}
	var stale []string
	for name := range documented {
		if _, ok := used[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("phase %s is in the DESIGN.md §8 phase table, but no StartPhase literal opens it", name)
	}
}

// designPhaseNames returns the backquoted names in the first column of
// the table that follows DESIGN.md's "**Phase names.**" paragraph.
func designPhaseNames(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "**Phase names.**")
	if !ok {
		t.Fatal(`DESIGN.md has no "**Phase names.**" table`)
	}
	code := regexp.MustCompile("`([^`]+)`")
	names := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		for _, m := range code.FindAllStringSubmatch(cells[1], -1) {
			names[m[1]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md phase table lists no names")
	}
	return names
}
