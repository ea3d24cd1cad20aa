// Package analysis is ceresvet's engine: a stdlib-only (go/parser,
// go/ast, go/types) multi-analyzer suite that enforces the repo's
// load-bearing invariants — atomic file publication, context flow,
// deterministic map iteration, lock-copy safety, the //ceres:allocfree
// hot-path contract and goroutine start sites. DESIGN.md §9 documents each analyzer and how to add
// a new one; cmd/ceresvet is the CLI.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects a single package and
// reports findings through the Pass.
type Analyzer struct {
	// Name is the identifier //ceresvet:ignore directives reference.
	Name string
	// Doc is the one-line description `ceresvet -list` prints.
	Doc string
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in reporting order. The annotations
// analyzer validates the directive grammar itself and therefore always
// runs first.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnnotationsAnalyzer,
		AtomicWriteAnalyzer,
		CtxFlowAnalyzer,
		MapDeterminismAnalyzer,
		LockSafetyAnalyzer,
		AllocFreeAnalyzer,
		GoroutinesAnalyzer,
	}
}

// analyzerNames lists the registered analyzers without referring to
// their vars, so directive parsing (which the analyzers' Run funcs
// reach) does not create an initialization cycle.
var analyzerNames = []string{annotationsName, "atomicwrite", "ctxflow", "mapdeterminism", "locksafety", "allocfree", "goroutines"}

// knownAnalyzer reports whether name is a registered analyzer —
// the validity condition for //ceresvet:ignore targets.
func knownAnalyzer(name string) bool {
	for _, n := range analyzerNames {
		if n == name {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages, applies
// //ceresvet:ignore suppression, and returns diagnostics in
// deterministic (file, line, col, analyzer, message) order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
		}
		dirs := pkg.directives()
		for _, d := range diags {
			if dirs.suppressed(d) {
				continue
			}
			all = append(all, d)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}
