package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// forbidden are the ways to assemble a store other than silo.Open, by
// import path and name. The harness opens every Silo store through
// silo.Open, so each figure's rows measure the engine an application gets.
var forbidden = map[string]string{
	"silo/internal/wal":  "Attach",
	"silo/internal/core": "NewStore",
}

// TestStoresOpenThroughSiloOpen: no non-test file of the harness names
// wal.Attach or core.NewStore.
func TestStoresOpenThroughSiloOpen(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		n++
		for _, use := range storeAssembly(fset, f) {
			t.Errorf("%s: the harness must open its stores with silo.Open", use)
		}
	}
	if n == 0 {
		t.Fatal("no source files checked")
	}
}

// TestStoreAssemblyIsFound gives the checker a source that assembles a
// store behind silo.Open's back, through a renamed import.
func TestStoreAssemblyIsFound(t *testing.T) {
	const src = `package main

import (
	engine "silo/internal/core"
	"silo/internal/wal"
)

func open() {
	s := engine.NewStore(engine.DefaultOptions(1))
	wal.Flush(s)
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "bad.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	uses := storeAssembly(fset, f)
	if len(uses) != 1 || !strings.Contains(uses[0], "bad.go:9") || !strings.Contains(uses[0], "core.NewStore") {
		t.Fatalf("storeAssembly = %q, want the one core.NewStore at bad.go:9", uses)
	}
}

// storeAssembly returns the position and name of every reference in f to
// a forbidden function, called or not.
func storeAssembly(fset *token.FileSet, f *ast.File) []string {
	imports := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = path
	}
	var uses []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok {
			if path := imports[x.Name]; path != "" && forbidden[path] == sel.Sel.Name {
				uses = append(uses, fset.Position(sel.Pos()).String()+": "+path[strings.LastIndex(path, "/")+1:]+"."+sel.Sel.Name)
			}
		}
		return true
	})
	return uses
}
