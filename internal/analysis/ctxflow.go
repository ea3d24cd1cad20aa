package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlowAnalyzer enforces the context-cancellation invariant: library
// code never manufactures its own root context, and any exported
// function that fans work out to goroutines (a `go` statement, a call
// into ceres/internal/par or a parallelFor-style worker pool) must
// accept a context.Context and actually thread it, so callers can cancel
// the fan-out. Entry-point packages (package main) are exempt: main() is
// where root contexts are legitimately created.
var CtxFlowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "context.Background/TODO in library code; exported fan-out without a threaded context.Context",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	pkg := pass.Pkg
	if pkg.IsMain() {
		return
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok {
				checkExportedFanout(pass, fn)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pkgCall(pkg.Info, call); ok && path == "context" && (name == "Background" || name == "TODO") {
				pass.Reportf(call.Pos(), "context.%s() in library code: accept a context.Context from the caller instead of manufacturing a root", name)
			}
			return true
		})
	}
}

// checkExportedFanout flags exported functions that spawn concurrency
// without accepting (or without using) a context parameter.
func checkExportedFanout(pass *Pass, fn *ast.FuncDecl) {
	if fn.Body == nil || !fn.Name.IsExported() {
		return
	}
	if !spawnsWork(pass.Pkg.Info, fn.Body) {
		return
	}
	ctxParams := contextParams(pass, fn)
	if len(ctxParams) == 0 {
		pass.Reportf(fn.Pos(), "exported %s spawns goroutines but has no context.Context parameter: callers cannot cancel the fan-out", funcLabel(fn))
		return
	}
	for _, name := range ctxParams {
		if name == "_" {
			pass.Reportf(fn.Pos(), "exported %s discards its context.Context parameter (_): thread it into the spawned work", funcLabel(fn))
			continue
		}
		if !identUsed(fn.Body, name) {
			pass.Reportf(fn.Pos(), "exported %s never uses its context.Context parameter %q: thread it into the spawned work", funcLabel(fn), name)
		}
	}
}

// parPkg is the library's fan-out package: any call into it spawns work.
const parPkg = "ceres/internal/par"

// spawnsWork reports whether the body contains a go statement, a call
// into parPkg (resolved through go/types, so an import alias is seen
// through) or a call to a parallelFor-style pool helper.
func spawnsWork(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			found = true
		case *ast.CallExpr:
			var name string
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				name = fun.Name
			case *ast.SelectorExpr:
				name = fun.Sel.Name
			}
			if strings.HasPrefix(name, "parallelFor") || strings.HasPrefix(name, "ParallelFor") {
				found = true
			}
			if path, _, ok := pkgCall(info, x); ok && path == parPkg {
				found = true
			}
		}
		return !found
	})
	return found
}

// contextParams returns the names of fn's context.Context parameters.
func contextParams(pass *Pass, fn *ast.FuncDecl) []string {
	var names []string
	if fn.Type.Params == nil {
		return nil
	}
	for _, field := range fn.Type.Params.List {
		if !isContextType(pass.Pkg.Info, field.Type) {
			continue
		}
		if len(field.Names) == 0 {
			names = append(names, "_")
			continue
		}
		for _, n := range field.Names {
			names = append(names, n.Name)
		}
	}
	return names
}

// identUsed reports whether an identifier with the given name is read
// anywhere in the body (shadowing is rare enough in practice that a
// name-level check keeps the analyzer simple).
func identUsed(body *ast.BlockStmt, name string) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
		}
		return !used
	})
	return used
}
