package xpath

import (
	"slices"
	"testing"

	"ceres/internal/dom"
)

func TestGeneralize(t *testing.T) {
	paths := []Path{
		MustParse("/html[1]/body[1]/ul[1]/li[1]/a[1]"),
		MustParse("/html[1]/body[1]/ul[1]/li[2]/a[1]"),
		MustParse("/html[1]/body[1]/ul[1]/li[7]/a[1]"),
	}
	pat, ok := Generalize(paths)
	if !ok {
		t.Fatalf("Generalize failed")
	}
	if !slices.Equal(pat, wild("/html[1]/body[1]/ul[1]/li[1]/a[1]", 3)) {
		t.Errorf("pattern = %v", pat)
	}
	for _, p := range paths {
		if !pat.Matches(p) {
			t.Errorf("pattern should match its input %v", p)
		}
	}
	if pat.Matches(MustParse("/html[1]/body[1]/ul[2]/li[1]/a[1]")) {
		t.Errorf("pattern should not match a different ul")
	}
	if pat.Matches(MustParse("/html[1]/body[1]/ul[1]/li[1]")) {
		t.Errorf("pattern should not match a shorter path")
	}
	if ws := pat.Wildcards(); len(ws) != 1 || ws[0] != 3 {
		t.Errorf("Wildcards = %v", ws)
	}
}

func TestGeneralizeShapeMismatch(t *testing.T) {
	if _, ok := Generalize([]Path{
		MustParse("/html[1]/body[1]/a[1]"),
		MustParse("/html[1]/body[1]/b[1]"),
	}); ok {
		t.Errorf("shape mismatch must fail")
	}
	if _, ok := Generalize(nil); ok {
		t.Errorf("empty input must fail")
	}
	// Single path generalizes to itself.
	p := MustParse("/html[1]/a[2]")
	pat, ok := Generalize([]Path{p})
	if !ok || !slices.Equal(pat, PatternOf(p)) {
		t.Errorf("single-path generalization = %v, %v", pat, ok)
	}
}

// wild is the pattern of a concrete path with the given steps' indices
// made wildcards.
func wild(path string, steps ...int) Pattern {
	pat := PatternOf(MustParse(path))
	for _, i := range steps {
		pat[i].Index = Wildcard
	}
	return pat
}

func TestPatternApply(t *testing.T) {
	doc := dom.Parse(`<html><body>
		<ul><li><a>one</a></li><li><a>two</a></li><li><a>three</a></li></ul>
		<div><a>not in list</a></div>
	</body></html>`)
	nodes := wild("/html[1]/body[1]/ul[1]/li[1]/a[1]", 3).Apply(doc)
	if len(nodes) != 3 {
		t.Fatalf("Apply found %d nodes, want 3", len(nodes))
	}
	want := []string{"one", "two", "three"}
	for i, n := range nodes {
		if n.Text() != want[i] {
			t.Errorf("node %d text = %q, want %q", i, n.Text(), want[i])
		}
	}
	// Exact pattern finds exactly one.
	if got := wild("/html[1]/body[1]/ul[1]/li[2]/a[1]").Apply(doc); len(got) != 1 || got[0].Text() != "two" {
		t.Errorf("exact apply = %v", got)
	}
	// Text node steps.
	if got := wild("/html[1]/body[1]/ul[1]/li[1]/a[1]/text()[1]", 3).Apply(doc); len(got) != 3 || got[0].Type != dom.TextNode {
		t.Errorf("text apply found %d", len(got))
	}
}

// TestApplyAgreesWithGeneratedPaths: applying the exact pattern of any
// node's path returns exactly that node.
func TestApplyAgreesWithGeneratedPaths(t *testing.T) {
	doc := dom.Parse(`<html><body><div><span>a</span><span>b</span><ul><li>x<li>y</ul></div></body></html>`)
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.DocumentNode || n.Type == dom.CommentNode {
			return true
		}
		pat := PatternOf(FromNode(n))
		got := pat.Apply(doc)
		if len(got) != 1 || got[0] != n {
			t.Errorf("exact pattern %v matched %d nodes", pat, len(got))
		}
		return true
	})
}
