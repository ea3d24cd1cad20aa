package xpath_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ceres/internal/xpath"
	"ceres/internal/xpath/xpathtest"
)

func TestParseAndString(t *testing.T) {
	cases := []string{
		"/",
		"/html[1]",
		"/html[1]/body[1]/div[3]/a[2]",
		"/html[1]/body[1]/div[2]/text()[1]",
	}
	for _, s := range cases {
		p, err := xpathtest.Parse(s)
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
		if _, err := xpathtest.Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

// genPath builds a random valid path for property tests.
func genPath(r *rand.Rand) xpath.Path {
	tags := []string{"html", "body", "div", "span", "a", "li", "ul", "td", "text()"}
	n := r.Intn(8)
	p := make(xpath.Path, n)
	for i := range p {
		p[i] = xpath.Step{Tag: tags[r.Intn(len(tags))], Index: 1 + r.Intn(9)}
	}
	return p
}

func TestParsePrintRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := genPath(r)
		q, err := xpathtest.Parse(p.String())
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
	a := xpathtest.MustParse("/html[1]/body[1]/div[2]/a[3]")
	b := xpathtest.MustParse("/html[1]/body[1]/div[2]/a[7]")
	c := xpathtest.MustParse("/html[1]/body[1]/span[2]/a[3]")
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
		p := make(xpath.Path, n)
		for i := 0; i < n; i++ {
			p[i] = xpath.Step{Tag: names[int(tags[i])%len(names)], Index: 1 + int(idxs[i])%5}
		}
		q, err := xpathtest.Parse(p.String())
		return err == nil && slices.Equal(q, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
