package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapDeterminismAnalyzer guards the byte-identical-output invariant
// (kill/resume of a batch run, WriteBinary of a SiteModel, fused triple
// files): Go randomizes map iteration order, so a `range` over a map
// must not feed order-sensitive output. Flagged inside a map-range
// body:
//
//   - appending to a slice declared outside the loop, unless that slice
//     is sorted afterwards in the same function (the collect-then-sort
//     idiom is the blessed fix and stays silent);
//   - writing to a sink: fmt.Print/Fprint calls or any Write* method
//     (io.Writer, strings.Builder, bufio.Writer, gzip.Writer, ...);
//   - sending on a channel.
//
// Aggregations (sums, max, building another map) are order-independent
// and stay silent.
var MapDeterminismAnalyzer = &Analyzer{
	Name: "mapdeterminism",
	Doc:  "order-sensitive output built from randomized map iteration",
	Run:  runMapDeterminism,
}

func runMapDeterminism(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := typeOf(pass.Pkg.Info, rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, fn, rs)
				return true
			})
		}
	}
}

func checkMapRange(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is checked by its own pass; descending
			// here would double-report its findings.
			if t := typeOf(info, x.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send inside map iteration: receive order is randomized per run; iterate a sorted key slice instead")
		case *ast.CallExpr:
			if path, name, ok := pkgCall(info, x); ok && path == "fmt" &&
				(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
				pass.Reportf(x.Pos(), "fmt.%s inside map iteration: output order is randomized per run; iterate a sorted key slice instead", name)
				return true
			}
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Write") {
				pass.Reportf(x.Pos(), "%s inside map iteration: sink output order is randomized per run; iterate a sorted key slice instead", sel.Sel.Name)
			}
		case *ast.AssignStmt:
			checkAppendInMapRange(pass, fn, rs, x)
		}
		return true
	})
}

// checkAppendInMapRange flags `out = append(out, ...)` where out is
// declared outside the loop and is never sorted after the loop ends.
func checkAppendInMapRange(pass *Pass, fn *ast.FuncDecl, rs *ast.RangeStmt, as *ast.AssignStmt) {
	info := pass.Pkg.Info
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "append") || i >= len(as.Lhs) {
			continue
		}
		dst := baseIdent(as.Lhs[i])
		if dst == nil {
			continue
		}
		obj := info.ObjectOf(dst)
		if obj == nil {
			continue
		}
		// Declared inside the loop body: the per-iteration slice cannot
		// leak iteration order across iterations.
		if obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End() {
			continue
		}
		if sortedAfter(info, fn.Body, obj, rs.End()) {
			continue
		}
		pass.Reportf(call.Pos(), "append to %q in map iteration order with no subsequent sort: slice order is randomized per run (collect then sort, or iterate sorted keys)", dst.Name)
	}
}

// sortedAfter reports whether obj is passed to a sort-like call
// (anything in sort or slices, or a function whose name contains "Sort"
// or "Canonical") after pos — the "intervening sort" that restores
// determinism before the slice is used.
func sortedAfter(info *types.Info, body *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		if !isSortLike(info, call) {
			return true
		}
		for _, arg := range call.Args {
			base := baseIdent(arg)
			if base == nil {
				if ue, ok := arg.(*ast.UnaryExpr); ok && ue.Op == token.AND {
					base = baseIdent(ue.X)
				}
			}
			if base != nil && info.ObjectOf(base) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func isSortLike(info *types.Info, call *ast.CallExpr) bool {
	if path, _, ok := pkgCall(info, call); ok {
		return path == "sort" || path == "slices"
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			name = id.Name
		}
	}
	return strings.Contains(name, "Sort") || strings.Contains(name, "sort") || strings.Contains(name, "Canonical")
}
