package repro

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRef is a backticked `pkg.Ident` span of a document, optionally with
// further selectors (`pkg.Type.Method`) and a call's argument list.
var docRef = regexp.MustCompile("`([a-z][a-z0-9]*)((?:\\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\\([^`]*\\))?`")

// TestDocIdentifiersResolve checks that every backticked `pkg.Ident` in
// DESIGN.md and README.md whose pkg names a package of this module
// names something declared in it: a top-level identifier, a method or a
// struct field, for each selector in turn. Dotted benchmark metric names
// (`sim.events`, `ecg.cpu_pct`) are read from BENCHMARK.json and allowed
// as they are. Spans whose first part is no package of the module (a
// file name, a standard-library call, a config field) are not checked.
func TestDocIdentifiersResolve(t *testing.T) {
	decls := moduleDecls(t)
	metrics := benchmarkMetrics(t)
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRef.FindAllStringSubmatch(string(text), -1) {
			pkg, sels := m[1], strings.Split(m[2][1:], ".")
			names, ok := decls[pkg]
			if !ok || metrics[pkg+m[2]] {
				continue
			}
			checked++
			for _, sel := range sels {
				if !names[sel] {
					t.Errorf("%s: %s names no identifier declared in package %s", doc, m[0], pkg)
					break
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no `pkg.Ident` reference found to check")
	}
}

// moduleDecls maps each package name of the module, apart from main, to
// the names declared in it, tests included: top-level identifiers,
// methods, and struct and interface fields.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.FuncLit:
				return false
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		names[m.Name] = true
	}
	return names
}
