// Command ceresvet is the repo's invariant gate: a stdlib-only static
// analyzer suite that loads every package of the module and enforces
// the six load-bearing conventions the differential tests assume —
// atomic file publication (atomicwrite), threaded cancellation
// (ctxflow), deterministic map iteration (mapdeterminism), no copied
// locks or leaked internal maps (locksafety), the //ceres:allocfree
// hot-path contract (allocfree) and goroutines started only by
// internal/par (goroutines) — plus the grammar of its own
// annotations (annotations). DESIGN.md §9 documents each analyzer;
// `make lint` and the CI lint job run `go vet` and ceresvet together.
//
// Usage:
//
//	ceresvet ./...                 # whole module (the CI gate)
//	ceresvet ./internal/core       # one package subtree
//	ceresvet -json ./...           # machine-readable diagnostics
//	ceresvet -list                 # analyzer names and docs
//
// Suppress a finding with an inline escape hatch naming the analyzer
// and a reason:
//
//	f, _ := os.Create(p) //ceresvet:ignore atomicwrite scratch file, never read back
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ceres/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.LoadModule(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs = filterPackages(pkgs, cwd, flag.Args())
	if len(pkgs) == 0 {
		fatal(fmt.Errorf("no packages match %v", flag.Args()))
	}

	diags := analysis.Run(pkgs, analysis.Analyzers())
	for i := range diags {
		diags[i].File = relPath(cwd, diags[i].File)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ceresvet:", err)
	os.Exit(2)
}

// filterPackages narrows the loaded module to the requested patterns:
// no args or "./..." means everything; "./dir" selects one package and
// "./dir/..." a subtree. Patterns are resolved relative to cwd.
func filterPackages(pkgs []*analysis.Package, cwd string, patterns []string) []*analysis.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	var out []*analysis.Package
	for _, p := range pkgs {
		rel := relPath(cwd, p.Dir)
		for _, pat := range patterns {
			if matchPattern(rel, pat) {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

func matchPattern(relDir, pat string) bool {
	pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
	relDir = filepath.ToSlash(relDir)
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		if prefix == "" || prefix == "." {
			return true
		}
		return relDir == prefix || strings.HasPrefix(relDir, prefix+"/")
	}
	if pat == "..." || pat == "." {
		return pat == "..." || relDir == "."
	}
	return relDir == pat
}

func relPath(base, p string) string {
	if rel, err := filepath.Rel(base, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}
