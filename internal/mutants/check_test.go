package mutants

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTable is the static check: it applies nothing and runs nothing.
func TestTable(t *testing.T) {
	if len(table) < 25 {
		t.Errorf("the table holds %d entries, want at least 25", len(table))
	}
	for _, err := range check(moduleRoot(t), table) {
		t.Error(err)
	}
}

// TestCheckReportsBadEntries gives the static check one entry of each kind
// of drift: an old string the file no longer holds, one it holds twice, and
// a killer naming a test its package does not have.
func TestCheckReportsBadEntries(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module m\n")
	write("p/p.go", "package p\n\nfunc f() int { return 1 }\n\nfunc g() int { return 1 }\n")
	write("p/p_test.go", "package p\n\nimport \"testing\"\n\nfunc TestF(t *testing.T) {}\n")

	good := mutant{name: "good", file: "p/p.go", old: "func f() int { return 1 }", new: "func f() int { return 2 }", killers: []killer{{"p", "TestF"}}}
	if errs := check(root, []mutant{good}); len(errs) != 0 {
		t.Fatalf("a valid entry was reported: %v", errs)
	}
	for _, c := range []struct {
		m    mutant
		want string
	}{
		{mutant{name: "absent", file: "p/p.go", old: "return 3", new: "return 4", killers: good.killers}, "occurs 0 times"},
		{mutant{name: "twice", file: "p/p.go", old: "return 1", new: "return 2", killers: good.killers}, "occurs 2 times"},
		{mutant{name: "no-such-test", file: good.file, old: good.old, new: good.new, killers: []killer{{"p", "TestG"}}}, "no test TestG"},
	} {
		errs := check(root, []mutant{good, c.m})
		if len(errs) != 1 || !strings.Contains(errs[0].Error(), c.want) || !strings.Contains(errs[0].Error(), c.m.name) {
			t.Errorf("entry %s: check reported %v, want one error naming it and %q", c.m.name, errs, c.want)
		}
	}
}

// check returns one error per way an entry does not fit the tree at root:
// a duplicate name, an edit that changes nothing, an old string that does
// not occur exactly once in its file, no killer, or a killer naming a test
// its package does not declare.
func check(root string, muts []mutant) []error {
	var errs []error
	bad := func(m mutant, format string, args ...any) {
		errs = append(errs, fmt.Errorf("mutant %s: %s", m.name, fmt.Sprintf(format, args...)))
	}
	names := map[string]bool{}
	tests := map[string]map[string]bool{} // package dir → its Test and Fuzz functions
	for _, m := range muts {
		if names[m.name] {
			bad(m, "duplicate name")
		}
		names[m.name] = true
		if m.old == m.new {
			bad(m, "old and new are the same")
		}
		if src, err := os.ReadFile(filepath.Join(root, m.file)); err != nil {
			bad(m, "%v", err)
		} else if n := strings.Count(string(src), m.old); n != 1 {
			bad(m, "old string occurs %d times in %s, want 1", n, m.file)
		}
		if len(m.killers) == 0 {
			bad(m, "no killer")
		}
		for _, k := range m.killers {
			fns, ok := tests[k.pkg]
			if !ok {
				var err error
				if fns, err = testFuncs(filepath.Join(root, k.pkg)); err != nil {
					bad(m, "killer package %s: %v", k.pkg, err)
				}
				tests[k.pkg] = fns
			}
			if !fns[k.test] {
				bad(m, "no test %s in package %s", k.test, k.pkg)
			}
		}
	}
	return errs
}

// testFuncs returns the top-level Test and Fuzz functions declared in the
// _test.go files of dir.
func testFuncs(dir string) (map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	fns := map[string]bool{}
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil {
				continue
			}
			if name := fd.Name.Name; strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") {
				fns[name] = true
			}
		}
	}
	return fns, nil
}

// moduleRoot is the directory holding the go.mod above the test's package.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		} else if !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		up := filepath.Dir(dir)
		if up == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = up
	}
}
