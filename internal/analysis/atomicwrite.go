package analysis

import (
	"go/ast"
	"strings"
)

// AtomicWriteAnalyzer enforces the repo's crash-safety invariant: every
// file publication goes through internal/fsatomic (CreateTemp + Commit,
// or WriteFile), so readers — and crash-restarted processes — observe
// either the old file or the complete new one, never a torn write, failed
// writes leave no temp droppings, and every durable-path operation passes
// the package's fault seam, where the crash-point tests see it.
//
// Flagged: calls to os.Create, os.CreateTemp, os.WriteFile, os.Rename,
// os.Link and io/ioutil.WriteFile, and calls to fsatomic.SetHook — the
// seam is for tests; no production path may install a hook. Allowed:
// os.OpenFile (append-only segment files are legitimately non-atomic),
// anything inside the fsatomic package itself (the one place the rename
// dance may live) and its test driver fsatomictest, and _test.go files
// (tests write fixtures freely).
var AtomicWriteAnalyzer = &Analyzer{
	Name: "atomicwrite",
	Doc:  "raw os.Create/CreateTemp/WriteFile/Rename/Link outside internal/fsatomic, or fsatomic.SetHook outside tests",
	Run:  runAtomicWrite,
}

func runAtomicWrite(pass *Pass) {
	pkg := pass.Pkg
	if strings.HasSuffix(pkg.Path, "/fsatomic") || strings.HasSuffix(pkg.Path, "/fsatomictest") {
		return
	}
	for i, f := range pkg.Files {
		if isTestFile(pkg.Filenames[i]) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgCall(pkg.Info, call)
			if !ok {
				return true
			}
			switch {
			case path == "os" && (name == "Create" || name == "CreateTemp" || name == "WriteFile" || name == "Rename" || name == "Link"):
				pass.Reportf(call.Pos(), "raw os.%s: publish files through internal/fsatomic (WriteFile, or CreateTemp+Commit for streams) so readers never observe torn writes and the crash-point tests see the operation", name)
			case path == "io/ioutil" && name == "WriteFile":
				pass.Reportf(call.Pos(), "raw ioutil.WriteFile: publish files through internal/fsatomic so readers never observe torn writes")
			case strings.HasSuffix(path, "/fsatomic") && name == "SetHook":
				pass.Reportf(call.Pos(), "fsatomic.SetHook outside a test: the fault seam must never be installed by production code")
			}
			return true
		})
	}
}
