package analysis

import (
	"go/ast"
	"strings"
)

// GoroutinesAnalyzer holds the library's goroutine start sites to one
// package: a fan-out goes through internal/par (For for independent
// items, Ordered for an in-order read-ahead), which bounds it, stops it
// on cancellation and joins it before returning. Flagged: a `go`
// statement in a non-main package, outside any package named par and
// outside _test.go files. A long-lived stage that outlives one call (the
// batch runner's dispatcher workers and commit stage) says why with a
// //ceresvet:ignore goroutines directive.
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
				pass.Reportf(g.Pos(), "go statement in library code: fan out through internal/par (For, or Ordered for an in-order read-ahead), which bounds, cancels and joins its goroutines")
			}
			return true
		})
	}
}
