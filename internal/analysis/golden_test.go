package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness: each analyzer owns testdata/src/<name>/<pkg>
// directories of seeded violations. A `// want "substr" ...` comment
// expects diagnostics of the analyzer under test on its own line; a
// `// want-next "substr"` comment expects them on the following line
// (needed when the flagged line is itself a directive comment). The
// test fails on any unexpected diagnostic and on any unmet expectation:
// the analyzers must flag every seeded violation and nothing else.

var wantStrRe = regexp.MustCompile(`"([^"]*)"`)

type expectation struct {
	file string
	line int
	sub  string
	met  bool
}

func parseExpectations(t *testing.T, filename string) []*expectation {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatal(err)
	}
	var exps []*expectation
	for i, lineText := range strings.Split(string(data), "\n") {
		line := i + 1
		idx := strings.Index(lineText, "// want")
		if idx < 0 {
			continue
		}
		rest := lineText[idx+len("// want"):]
		if strings.HasPrefix(rest, "-next") {
			line++
			rest = strings.TrimPrefix(rest, "-next")
		}
		for _, m := range wantStrRe.FindAllStringSubmatch(rest, -1) {
			exps = append(exps, &expectation{file: filename, line: line, sub: m[1]})
		}
	}
	return exps
}

// loadDir loads a single directory as one package under the given import
// path: a seeded-violation package of testdata/. Unlike LoadModule it
// includes _test.go files, so filename-based exemptions are testable.
func loadDir(dir, path string) (*Package, error) {
	fset := token.NewFileSet()
	pkg, _, err := parseDir(fset, dir, path, true)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	check(pkg, newLoader(fset, path, dir))
	return pkg, nil
}

// byName resolves an analyzer by its directive name.
func byName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// runGolden loads every package under testdata/src/<analyzer> and
// checks the analyzer's diagnostics against the want comments.
func runGolden(t *testing.T, name string) {
	t.Helper()
	a, ok := byName(name)
	if !ok {
		t.Fatalf("no analyzer %q", name)
	}
	root := filepath.Join("testdata", "src", name)
	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		ran++
		dir := filepath.Join(root, e.Name())
		t.Run(e.Name(), func(t *testing.T) {
			pkg, err := loadDir(dir, "test/"+name+"/"+e.Name())
			if err != nil {
				t.Fatal(err)
			}
			for _, terr := range pkg.TypeErrors {
				t.Errorf("testdata must type-check cleanly: %v", terr)
			}
			var exps []*expectation
			for _, fn := range pkg.Filenames {
				exps = append(exps, parseExpectations(t, fn)...)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{a})
			for _, d := range diags {
				if !claim(exps, d.File, d.Line, d.Message) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, ex := range exps {
				if !ex.met {
					t.Errorf("missed expected diagnostic at %s:%d containing %q", ex.file, ex.line, ex.sub)
				}
			}
		})
	}
	if ran == 0 {
		t.Fatalf("no golden packages under %s", root)
	}
}

func claim(exps []*expectation, file string, line int, msg string) bool {
	for _, ex := range exps {
		if !ex.met && ex.file == file && ex.line == line && strings.Contains(msg, ex.sub) {
			ex.met = true
			return true
		}
	}
	return false
}

func TestAtomicWriteGolden(t *testing.T)    { runGolden(t, "atomicwrite") }
func TestCtxFlowGolden(t *testing.T)        { runGolden(t, "ctxflow") }
func TestMapDeterminismGolden(t *testing.T) { runGolden(t, "mapdeterminism") }
func TestLockSafetyGolden(t *testing.T)     { runGolden(t, "locksafety") }
func TestAllocFreeGolden(t *testing.T)      { runGolden(t, "allocfree") }
func TestAnnotationsGolden(t *testing.T)    { runGolden(t, "annotations") }
func TestGoroutinesGolden(t *testing.T)     { runGolden(t, "goroutines") }

// TestRepoIsCeresvetClean is the acceptance gate in test form: the full
// suite over the real module must report nothing. It is what
// `go run ./cmd/ceresvet ./...` checks in CI, kept here too so a plain
// `go test ./...` catches invariant regressions without the lint job.
func TestRepoIsCeresvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("module load found only %d packages", len(pkgs))
	}
	var msgs []string
	for _, d := range Run(pkgs, Analyzers()) {
		msgs = append(msgs, d.String())
	}
	if len(msgs) > 0 {
		t.Errorf("ceresvet is not clean on the repo:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestAnalyzerRegistry pins the suite composition: names are the
// //ceresvet:ignore vocabulary, so renames are breaking changes.
func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"annotations", "atomicwrite", "ctxflow", "mapdeterminism", "locksafety", "allocfree", "goroutines"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
		if !knownAnalyzer(a.Name) {
			t.Errorf("knownAnalyzer(%q) = false", a.Name)
		}
	}
	_ = fmt.Sprintf // keep fmt imported for future debugging ergonomics
}
