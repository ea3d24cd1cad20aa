package ceres

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
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

// walkNonTestGo parses every non-test Go file of the module outside
// hidden and testdata directories and the directories skip names, and
// hands each to visit.
func walkNonTestGo(t *testing.T, skip map[string]bool, visit func(fset *token.FileSet, path string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") || skip[filepath.ToSlash(path)] {
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
		visit(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed only %d files: the walk is not covering the module", files)
	}
}

// importName returns the name f imports pkg under, or "".
func importName(f *ast.File, pkg string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == pkg {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return filepath.Base(pkg)
		}
	}
	return ""
}

// TestTreeStaysOffProductPath parses the non-test Go of every package
// outside treePackages and fails on any reference to dom.Node, dom.Parse
// or dom.TextFields, so training and serving keep one page
// representation.
func TestTreeStaysOffProductPath(t *testing.T) {
	walkNonTestGo(t, treePackages, func(fset *token.FileSet, path string, f *ast.File) {
		domName := importName(f, "ceres/internal/dom")
		if domName == "" {
			return
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
	})
}

// harnessPackages are the comparison systems and test references: the
// experiment harness and the systems only it runs (VERTEX++,
// CERES-Baseline), and the references tests hold the product to.
var harnessPackages = []string{
	"internal/bench",
	"internal/vertex",
	"internal/kb/kbtest",
	"internal/xpath/xpathtest",
	"internal/heaptest",
}

// TestHarnessStaysOffProductPath fails if the non-test Go of any package
// but the harness packages themselves and cmd/ceres-bench imports one of
// them, so the comparison systems and references stay out of the product.
func TestHarnessStaysOffProductPath(t *testing.T) {
	walkNonTestGo(t, nil, func(fset *token.FileSet, path string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "cmd/ceres-bench" || slices.Contains(harnessPackages, dir) {
			return
		}
		for _, pkg := range harnessPackages {
			if importName(f, "ceres/"+pkg) != "" {
				t.Errorf("%s imports %s", path, pkg)
			}
		}
	})
}
