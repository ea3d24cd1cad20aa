package ceres

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// treePackages may build and read dom.Parse's pointer tree: the parser
// itself and the page simulator that builds and renders pages as trees.
// benchmark stays only for probe.go's dom.Parse span, which times the
// tree build as a layer of its own. Every other package, VERTEX++
// included, reads pages through the stream pass.
var treePackages = map[string]bool{
	"internal/dom":    true,
	"internal/websim": true,
	"benchmark":       true,
}

// treeNames are the dom identifiers that reach the tree.
var treeNames = map[string]bool{"Node": true, "Parse": true, "TextFields": true}

// TestTreeStaysOffProductPath parses the non-test Go of every package
// outside treePackages and fails on any reference to dom.Node, dom.Parse
// or dom.TextFields, so training and serving keep one page
// representation.
func TestTreeStaysOffProductPath(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") || treePackages[filepath.ToSlash(path)] {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		domName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "ceres/internal/dom" {
				domName = "dom"
				if imp.Name != nil {
					domName = imp.Name.Name
				}
			}
		}
		if domName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == domName && treeNames[sel.Sel.Name] {
				t.Errorf("%s: dom.%s outside treePackages", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d files: the walk is not covering the module", files)
	}
}
