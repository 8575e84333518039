package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeep lists the exported functions and methods under internal/
// that only tests call and that stay anyway, each with its reason.
var exportKeep = map[string]string{
	"Categorical": "rng.RNG.Categorical is the sequential draw reference the wrs, mwu, simplex and root sampling tests compare draws against bit for bit",
	"GetEval":     "store.Store.GetEval is the point read behind the store's and testsuite's persistence tests",
	"Snapshot":    "store.Store.Snapshot is the only way a test can force a snapshot at an exact record, a seam like store.Options",
}

// standardMethods are method names that a standard-library interface
// calls (fmt.Stringer, error, sort.Interface, heap.Interface, io.Reader,
// io.Writer, io.Closer, http.Handler, http.ResponseWriter,
// json.Marshaler), so no repo code needs to name them.
var standardMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "WriteHeader": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryExportHasANonTestCaller fails on an exported function or
// method declared in a non-test file under internal/ whose name no
// non-test code uses. Code that counts as a caller is every non-test
// file of the repo plus every file of the cmd/mwbench benchmark module,
// tests included, since that module compiles against this API from
// outside. The check matches names, not objects: it can miss a dead
// function that shares its name with a live one, but it never flags a
// function some non-test code calls.
func TestEveryExportHasANonTestCaller(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> declaring positions
	used := map[string]bool{}
	ifaceMethods := map[string]bool{}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		slash := filepath.ToSlash(path)
		isTest := strings.HasSuffix(path, "_test.go")
		inMwbench := strings.HasPrefix(slash, "cmd/mwbench/")
		if isTest && !inMwbench {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !isTest && strings.HasPrefix(slash, "internal/") && fd.Name.IsExported() {
				declared[fd.Name.Name] = append(declared[fd.Name.Name], fset.Position(fd.Name.Pos()).String())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declNames[n] {
					used[n.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var dead []string
	for name, at := range declared {
		if used[name] || ifaceMethods[name] || standardMethods[name] {
			continue
		}
		if _, keep := exportKeep[name]; keep {
			continue
		}
		dead = append(dead, name+" ("+strings.Join(at, ", ")+")")
	}
	for name := range exportKeep {
		if _, ok := declared[name]; !ok {
			t.Errorf("keep-list names %s, which internal/ no longer declares", name)
		} else if used[name] {
			t.Errorf("keep-list names %s, which non-test code now calls: drop it from the list", name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s has no caller outside tests: delete it or move it into a _test.go file", d)
	}
}
