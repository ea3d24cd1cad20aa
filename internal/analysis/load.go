package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package of the module under
// analysis. Test files (_test.go) are not loaded for module packages:
// the invariants ceresvet guards are production-code invariants, and the
// analyzers that exempt tests (atomicwrite) do so by filename so golden
// packages can still exercise the exemption.
type Package struct {
	// Path is the import path ("ceres/internal/core").
	Path string
	// Name is the package name ("core", "main").
	Name string
	// Dir is the directory the files were read from.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File
	// Filenames is parallel to Files.
	Filenames []string

	// Types and Info are the go/types results. Type checking is
	// best-effort: unresolved imports degrade to stub packages and the
	// errors accumulate in TypeErrors instead of failing the load, so
	// analyzers must tolerate types.Typ[types.Invalid] results.
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error

	dirs *fileDirectives
}

// IsMain reports whether the package is a command entry point.
func (p *Package) IsMain() bool { return p.Name == "main" }

// loader resolves imports for the packages being checked: module-local
// packages come from the in-progress load (topological order guarantees
// they are checked first), everything else from the stdlib source
// importer, degrading to an empty stub package when source import fails
// so analysis continues with partial type information.
type loader struct {
	fset    *token.FileSet
	modPath string
	modDir  string
	local   map[string]*types.Package
	src     types.ImporterFrom
	stubs   map[string]*types.Package
}

func newLoader(fset *token.FileSet, modPath, modDir string) *loader {
	return &loader{
		fset:    fset,
		modPath: modPath,
		modDir:  modDir,
		local:   make(map[string]*types.Package),
		src:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		stubs:   make(map[string]*types.Package),
	}
}

func (l *loader) isLocal(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.modDir, 0)
}

func (l *loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if l.isLocal(path) {
		if pkg, ok := l.local[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("analysis: import cycle or unknown module package %q", path)
	}
	if pkg, ok := l.stubs[path]; ok {
		return pkg, nil
	}
	if pkg, err := l.src.ImportFrom(path, l.modDir, 0); err == nil {
		return pkg, nil
	}
	// Unresolvable import (cgo-only package, missing GOROOT source):
	// return an empty complete package so the checker records the
	// import and keeps going. Selector types degrade to Invalid.
	name := path
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	stub := types.NewPackage(path, name)
	stub.MarkComplete()
	l.stubs[path] = stub
	return stub, nil
}

// LoadModule locates the module containing dir and loads and type-checks
// every non-test package in it, in deterministic (import-path) order.
func LoadModule(dir string) ([]*Package, error) {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	pkgDirs, err := modulePackageDirs(modDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := newLoader(fset, modPath, modDir)

	parsed := make(map[string]*Package) // import path -> parsed (not yet checked)
	imports := make(map[string][]string)
	for _, d := range pkgDirs {
		rel, err := filepath.Rel(modDir, d)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, deps, err := parseDir(fset, d, path, false)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable files
		}
		parsed[path] = pkg
		for _, dep := range deps {
			if l.isLocal(dep) {
				imports[path] = append(imports[path], dep)
			}
		}
	}

	order, err := topoSort(parsed, imports)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range order {
		pkg := parsed[path]
		check(pkg, l)
		l.local[path] = pkg.Types
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func check(pkg *Package, imp types.ImporterFrom) {
	conf := types.Config{
		Importer:                 imp,
		DisableUnusedImportCheck: true,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	// Check returns the package even on type errors (which the Error
	// callback collected); analysis proceeds on partial information.
	tpkg, _ := conf.Check(pkg.Path, pkg.Fset, pkg.Files, info)
	pkg.Types = tpkg
	pkg.Info = info
}

// parseDir parses the Go files of one directory into a Package shell.
// Returns (nil, nil, nil) when the directory has no eligible files.
func parseDir(fset *token.FileSet, dir, path string, includeTests bool) (*Package, []string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil, nil
	}
	sort.Strings(names)

	pkg := &Package{Path: path, Dir: dir, Fset: fset}
	depSet := make(map[string]bool)
	for _, n := range names {
		fn := filepath.Join(dir, n)
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		// External test packages (package foo_test) would need their own
		// type-check universe; golden packages keep test files in-package.
		if pkg.Name == "" || !strings.HasSuffix(f.Name.Name, "_test") {
			if pkg.Name != "" && pkg.Name != f.Name.Name && !strings.HasSuffix(f.Name.Name, "_test") {
				return nil, nil, fmt.Errorf("analysis: %s: mixed packages %q and %q", dir, pkg.Name, f.Name.Name)
			}
			pkg.Name = f.Name.Name
		}
		if strings.HasSuffix(f.Name.Name, "_test") && f.Name.Name != pkg.Name {
			continue // skip external test files entirely
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, fn)
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				depSet[p] = true
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil, nil
	}
	deps := make([]string, 0, len(depSet))
	for d := range depSet {
		deps = append(deps, d)
	}
	sort.Strings(deps)
	return pkg, deps, nil
}

// modulePackageDirs walks the module tree collecting directories that
// contain buildable non-test Go files, skipping testdata, hidden and
// underscore directories, and vendor.
func modulePackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if p != root && (n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") && !strings.HasPrefix(n, "_") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// topoSort orders packages so every module-local import precedes its
// importer.
func topoSort(pkgs map[string]*Package, imports map[string][]string) ([]string, error) {
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(string) error
	visit = func(p string) error {
		switch state[p] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("analysis: import cycle through %q", p)
		}
		state[p] = gray
		for _, dep := range imports[p] {
			if _, ok := pkgs[dep]; !ok {
				continue // local import of a package with no files; checker will complain
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}
