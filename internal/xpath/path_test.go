package xpath

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	cases := []string{
		"/",
		"/html[1]",
		"/html[1]/body[1]/div[3]/a[2]",
		"/html[1]/body[1]/div[2]/text()[1]",
	}
	for _, s := range cases {
		p, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "html[1]", "/html", "/html[]", "/html[0]", "/html[x]", "/html[1]/", "/[1]",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// genPath builds a random valid path for property tests.
func genPath(r *rand.Rand) Path {
	tags := []string{"html", "body", "div", "span", "a", "li", "ul", "td", "text()"}
	n := r.Intn(8)
	p := make(Path, n)
	for i := range p {
		p[i] = Step{Tag: tags[r.Intn(len(tags))], Index: 1 + r.Intn(9)}
	}
	return p
}

func TestParsePrintRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := genPath(r)
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", p.String(), err)
		}
		if !slices.Equal(p, q) {
			t.Fatalf("roundtrip mismatch: %v vs %v", p, q)
		}
	}
}

// TestSameShapeAndDiff: paths that differ only in indices share a shape;
// a differing tag does not.
func TestSameShapeAndDiff(t *testing.T) {
	a := MustParse("/html[1]/body[1]/div[2]/a[3]")
	b := MustParse("/html[1]/body[1]/div[2]/a[7]")
	c := MustParse("/html[1]/body[1]/span[2]/a[3]")
	if !a.SameShape(b) || a.SameShape(c) {
		t.Fatalf("SameShape misbehaving")
	}
}

func TestQuickPathStringNeverPanics(t *testing.T) {
	f := func(tags []uint8, idxs []uint8) bool {
		n := len(tags)
		if len(idxs) < n {
			n = len(idxs)
		}
		names := []string{"div", "a", "span", "li"}
		p := make(Path, n)
		for i := 0; i < n; i++ {
			p[i] = Step{Tag: names[int(tags[i])%len(names)], Index: 1 + int(idxs[i])%5}
		}
		q, err := Parse(p.String())
		return err == nil && slices.Equal(q, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MustParse is Parse for known-good inputs; it panics on error.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// SameShape reports whether two paths have identical tag sequences,
// ignoring indices — the precondition for the paths to belong to the same
// value list (Figure 2).
func (p Path) SameShape(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i].Tag != q[i].Tag {
			return false
		}
	}
	return true
}
