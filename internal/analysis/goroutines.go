package analysis

import (
	"go/ast"
	"strings"
)

// GoroutinesAnalyzer holds the library's goroutine start sites to one
// package: goroutines start through internal/par — For for independent
// items, Ordered for an in-order read-ahead, Go for a group its caller
// feeds and joins with Wait — whose Go holds the only go statement.
// Flagged: a `go` statement in a non-main package, outside any package
// named par and outside _test.go files.
var GoroutinesAnalyzer = &Analyzer{
	Name: "goroutines",
	Doc:  "go statement in library code outside internal/par",
	Run:  runGoroutines,
}

func runGoroutines(pass *Pass) {
	pkg := pass.Pkg
	if pkg.IsMain() || strings.HasSuffix(pkg.Path, "/par") {
		return
	}
	for i, f := range pkg.Files {
		if isTestFile(pkg.Filenames[i]) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in library code: start goroutines through internal/par (For, Ordered, or Go and its Wait), which joins them")
			}
			return true
		})
	}
}
