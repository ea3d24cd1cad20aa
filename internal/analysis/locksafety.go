package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSafetyAnalyzer guards the concurrency plumbing of the serving
// stack: values containing sync.Mutex/RWMutex (or any sync/atomic
// type, notably the Registry's atomic.Pointer hot-swap cell) must never
// be copied — a copied lock guards nothing — and exported methods must
// not hand out references to their receiver's internal maps, which
// would let callers mutate registry state behind the lock-free readers'
// backs.
//
// Flagged:
//
//   - function parameters and receivers that take a lock-containing
//     struct by value;
//   - assignments and var initializers that copy an existing
//     lock-containing value (composite-literal initialization of a
//     fresh value is fine);
//   - call arguments passing a lock-containing value by value;
//   - two-variable range statements whose element copy contains a lock;
//   - `return x.field` in an exported method where field is a map owned
//     by the receiver.
var LockSafetyAnalyzer = &Analyzer{
	Name: "locksafety",
	Doc:  "by-value copies of sync/atomic-bearing structs; exported methods returning internal maps",
	Run:  runLockSafety,
}

func runLockSafety(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkLockParams(pass, fn)
			if fn.Body == nil {
				continue
			}
			checkInternalMapReturns(pass, fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					checkLockAssign(pass, x)
				case *ast.GenDecl:
					checkLockVarDecl(pass, x)
				case *ast.CallExpr:
					checkLockArgs(pass, x)
				case *ast.RangeStmt:
					checkLockRange(pass, x)
				}
				return true
			})
		}
	}
}

// lockPath returns a human-readable path to the first no-copy component
// of t ("sync.Mutex", "sync/atomic.Pointer[...]"), or "" when t is
// safely copyable. Pointers to locks are fine; the lock itself is not.
func lockPath(t types.Type) string {
	return lockPathSeen(t, make(map[types.Type]bool))
}

func lockPathSeen(t types.Type, seen map[types.Type]bool) string {
	if t == nil {
		return ""
	}
	t = types.Unalias(t)
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync":
				switch obj.Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Cond", "Once", "Map", "Pool":
					return "sync." + obj.Name()
				}
			case "sync/atomic":
				// Every sync/atomic type (Value, Bool, Int64,
				// Pointer[T], ...) pins its address after first use.
				return "sync/atomic." + obj.Name()
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if p := lockPathSeen(u.Field(i).Type(), seen); p != "" {
				return p
			}
		}
	case *types.Array:
		return lockPathSeen(u.Elem(), seen)
	}
	return ""
}

func checkLockParams(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	fields := []*ast.Field{}
	if fn.Recv != nil {
		fields = append(fields, fn.Recv.List...)
	}
	if fn.Type.Params != nil {
		fields = append(fields, fn.Type.Params.List...)
	}
	for _, field := range fields {
		t := typeOf(info, field.Type)
		if t == nil {
			continue
		}
		if isPointerLike(t) {
			continue
		}
		if p := lockPath(t); p != "" {
			what := "parameter"
			if fn.Recv != nil && len(fn.Recv.List) > 0 && field == fn.Recv.List[0] {
				what = "receiver"
			}
			pass.Reportf(field.Pos(), "%s %s copies a value containing %s: pass a pointer, a copied lock guards nothing", funcLabel(fn), what, p)
		}
	}
}

// valueRead reports whether e reads an existing value (identifier,
// field, element or dereference) — the forms whose assignment copies a
// live lock. Composite literals and calls construct fresh values.
func valueRead(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name != "nil"
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return valueRead(x.X)
	}
	return false
}

func checkLockAssign(pass *Pass, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	info := pass.Pkg.Info
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		// Assigning to _ discards the value: no usable copy is made.
		if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if !valueRead(rhs) {
			continue
		}
		t := typeOf(info, rhs)
		if t == nil {
			continue
		}
		if isPointerLike(t) {
			continue
		}
		if p := lockPath(t); p != "" {
			pass.Reportf(as.Lhs[i].Pos(), "assignment copies a value containing %s: use a pointer, a copied lock guards nothing", p)
		}
	}
}

func checkLockVarDecl(pass *Pass, gd *ast.GenDecl) {
	if gd.Tok != token.VAR {
		return
	}
	info := pass.Pkg.Info
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			if !valueRead(v) {
				continue
			}
			if t := typeOf(info, v); t != nil {
				if isPointerLike(t) {
					continue
				}
				if p := lockPath(t); p != "" {
					pass.Reportf(v.Pos(), "initializer copies a value containing %s: use a pointer, a copied lock guards nothing", p)
				}
			}
		}
	}
}

func checkLockArgs(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	for _, arg := range call.Args {
		// A type argument (new(sync.Mutex)) names a type; it copies nothing.
		if !valueRead(arg) || info.Types[arg].IsType() {
			continue
		}
		t := typeOf(info, arg)
		if t == nil {
			continue
		}
		if isPointerLike(t) {
			continue
		}
		if p := lockPath(t); p != "" {
			pass.Reportf(arg.Pos(), "call passes a value containing %s by value: pass a pointer, a copied lock guards nothing", p)
		}
	}
}

func checkLockRange(pass *Pass, rs *ast.RangeStmt) {
	if rs.Value == nil {
		return
	}
	t := typeOf(pass.Pkg.Info, rs.Value)
	if t == nil {
		return
	}
	if isPointerLike(t) {
		return
	}
	if p := lockPath(t); p != "" {
		pass.Reportf(rs.Value.Pos(), "range copies elements containing %s: range over indices or use pointer elements", p)
	}
}

// checkInternalMapReturns flags exported methods returning a map field
// of their receiver: the caller gets a mutable reference into state the
// type guards with its own synchronization.
func checkInternalMapReturns(pass *Pass, fn *ast.FuncDecl) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || !fn.Name.IsExported() {
		return
	}
	var recvNames []string
	for _, n := range fn.Recv.List[0].Names {
		if n.Name != "_" {
			recvNames = append(recvNames, n.Name)
		}
	}
	if len(recvNames) == 0 {
		return
	}
	info := pass.Pkg.Info
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not the method's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			sel, ok := res.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok || !isRecvName(recvNames, base.Name) {
				continue
			}
			if t := typeOf(info, res); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(res.Pos(), "exported %s returns internal map %s.%s by reference: return a copy, callers can mutate it behind the type's synchronization", funcLabel(fn), base.Name, sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// isPointerLike reports whether t is (an alias or named form of) a
// pointer, which may be copied freely even when it points at a lock.
func isPointerLike(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func isRecvName(names []string, n string) bool {
	for _, r := range names {
		if r == n {
			return true
		}
	}
	return false
}
