package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// pkgCall resolves a call of the form pkg.Fn where pkg is an imported
// package name, returning the package's import path and the function
// name. ok is false for method calls, locally-shadowed names and
// non-selector calls; an explicitly instantiated generic, pkg.Fn[T],
// resolves like pkg.Fn. Resolution goes through go/types PkgName objects,
// so an `import foo "os"` alias and a local variable named os are both
// handled correctly.
func pkgCall(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	fun := call.Fun
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	sel, okSel := fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isBuiltin reports whether the call invokes the named builtin
// (append, make, new, ...) rather than a shadowing user identifier.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// typeOf is info.TypeOf with a nil guard; it returns nil for expressions
// the (possibly degraded) type check produced nothing for.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil || t == types.Typ[types.Invalid] {
		return nil
	}
	return t
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isContextType reports whether the parameter type expression denotes
// context.Context — checked on the AST selector (resilient to stub
// degradation) with the package name resolved through go/types.
func isContextType(info *types.Info, expr ast.Expr) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "context"
}

// baseIdent unwraps slice and paren expressions to the base identifier:
// buf, buf[:0], (buf) all resolve to buf; anything else returns nil.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isTestFile reports whether filename is a Go test file.
func isTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// funcLabel renders a FuncDecl name for diagnostics, including the
// receiver type for methods: "(*Registry).Publish" or "Fuse".
func funcLabel(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
		star = "*"
	}
	name := "?"
	switch x := t.(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := x.X.(*ast.Ident); ok {
			name = id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			name = id.Name
		}
	}
	if star != "" {
		return "(" + star + name + ")." + fn.Name.Name
	}
	return name + "." + fn.Name.Name
}
