package xpath_test

import (
	"slices"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/xpath"
	"ceres/internal/xpath/xpathtest"
)

// stream streams html on a fresh scratch.
func stream(html string) *dom.StreamPage {
	return dom.NewStreamScratch().Stream([]byte(html), dom.StreamOptions{})
}

// fieldNamed returns the index of the field with the given text.
func fieldNamed(t *testing.T, sp *dom.StreamPage, text string) int {
	t.Helper()
	for fi := 0; fi < sp.Fields(); fi++ {
		if string(sp.FieldText(fi)) == text {
			return fi
		}
	}
	t.Fatalf("no field %q", text)
	return -1
}

// fitting lists the texts of the fields that fit pat, in document order.
func fitting(sp *dom.StreamPage, pat xpath.Pattern) []string {
	var out []string
	for fi := 0; fi < sp.Fields(); fi++ {
		if pat.Fits(sp, fi) {
			out = append(out, string(sp.FieldText(fi)))
		}
	}
	return out
}

const listPage = `<html><body>
	<ul><li><a>one</a></li><li><a>two</a></li><li>x</li><li>y</li><li>z</li><li>w</li><li><a>seven</a></li></ul>
	<ul><li><a>other list</a></li></ul>
	<div><a>not in list</a></div>
</body></html>`

func TestGeneralize(t *testing.T) {
	sp := stream(listPage)
	pat := xpath.AppendField(nil, sp, fieldNamed(t, sp, "one"))
	for _, v := range []string{"two", "seven"} {
		if !pat.Widen(sp, fieldNamed(t, sp, v)) {
			t.Fatalf("Widen by %q failed", v)
		}
	}
	if !slices.Equal(pat, wild("/html[1]/body[1]/ul[1]/li[1]/a[1]/text()[1]", 3)) {
		t.Errorf("pattern = %v", pat)
	}
	if got := fitting(sp, pat); !slices.Equal(got, []string{"one", "two", "seven"}) {
		t.Errorf("fields fitting = %q", got)
	}
	// A pattern's steps name tags, so it fits a page streamed on another
	// scratch, whose name IDs differ.
	other := dom.NewStreamScratch()
	other.Stream([]byte("<p><b><i>intern other tags first</i></b></p>"), dom.StreamOptions{})
	if got := fitting(other.Stream([]byte(listPage), dom.StreamOptions{}), pat); !slices.Equal(got, []string{"one", "two", "seven"}) {
		t.Errorf("fields fitting on another scratch = %q", got)
	}
	// The list's items, their ul and a shorter path fit as elements.
	var elems []string
	for e := int32(0); e < int32(sp.Elems()); e++ {
		if pat[:len(pat)-2].FitsElem(sp, e) {
			elems = append(elems, sp.Tag(e))
		}
		if pat[:3].FitsElem(sp, e) {
			elems = append(elems, "ul#"+string(rune('0'+sp.Ordinal(e))))
		}
	}
	if want := []string{"ul#1", "li", "li", "li", "li", "li", "li", "li"}; !slices.Equal(elems, want) {
		t.Errorf("elements fitting = %q, want %q", elems, want)
	}
	if xpath.Pattern(nil).FitsElem(sp, 1) || !xpath.Pattern(nil).FitsElem(sp, 0) {
		t.Errorf("only the document fits the empty pattern")
	}
}

func TestGeneralizeShapeMismatch(t *testing.T) {
	sp := stream(listPage)
	pat := xpath.AppendField(nil, sp, fieldNamed(t, sp, "one"))
	if pat.Widen(sp, fieldNamed(t, sp, "x")) {
		t.Errorf("a shorter path must not widen the pattern")
	}
	pat = xpath.AppendField(nil, sp, fieldNamed(t, sp, "one"))
	if pat.Widen(sp, fieldNamed(t, sp, "not in list")) {
		t.Errorf("other step names must not widen the pattern")
	}
	// A single field generalizes to its own exact path.
	fi := fieldNamed(t, sp, "seven")
	if got, want := xpath.Path(xpath.AppendField(nil, sp, fi)).String(), string(sp.AppendFieldXPath(nil, fi)); got != want {
		t.Errorf("exact pattern %s, field XPath %s", got, want)
	}
}

// wild is the pattern of a concrete path with the given steps' indices
// made wildcards.
func wild(path string, steps ...int) xpath.Pattern {
	pat := xpath.Pattern(xpathtest.MustParse(path))
	for _, i := range steps {
		pat[i].Index = xpath.Wildcard
	}
	return pat
}

func TestPatternApply(t *testing.T) {
	sp := stream(`<html><body>
		<ul><li><a>one</a></li><li><a>two</a></li><li><a>three</a></li></ul>
		<div><a>not in list</a></div>
	</body></html>`)
	if got := fitting(sp, wild("/html[1]/body[1]/ul[1]/li[1]/a[1]/text()[1]", 3)); !slices.Equal(got, []string{"one", "two", "three"}) {
		t.Errorf("wildcard pattern fits %q", got)
	}
	// Exact pattern finds exactly one.
	if got := fitting(sp, wild("/html[1]/body[1]/ul[1]/li[2]/a[1]/text()[1]")); !slices.Equal(got, []string{"two"}) {
		t.Errorf("exact pattern fits %q", got)
	}
	// An element path fits no field.
	if got := fitting(sp, wild("/html[1]/body[1]/ul[1]/li[1]/a[1]", 3)); got != nil {
		t.Errorf("element pattern fits %q", got)
	}
}

// TestApplyAgreesWithGeneratedPaths: the exact pattern of any field fits
// exactly that field and prints as its XPath, and the exact pattern of any
// element fits exactly that element.
func TestApplyAgreesWithGeneratedPaths(t *testing.T) {
	sp := stream(`top<html><body><div><span>a</span><span>b</span>c<!-- x -->d<ul><li>x<li>y</ul></div><title>t</title></body></html>`)
	for fi := 0; fi < sp.Fields(); fi++ {
		pat := xpath.AppendField(nil, sp, fi)
		if got, want := xpath.Path(pat).String(), string(sp.AppendFieldXPath(nil, fi)); got != want {
			t.Errorf("field %d: pattern %s, XPath %s", fi, got, want)
		}
		for fj := 0; fj < sp.Fields(); fj++ {
			if pat.Fits(sp, fj) != (fi == fj) {
				t.Errorf("exact pattern %s: fits field %d is %v", xpath.Path(pat), fj, !(fi == fj))
			}
		}
	}
	for e := int32(0); e < int32(sp.Elems()); e++ {
		pat := xpath.AppendElem(nil, sp, e)
		for o := int32(0); o < int32(sp.Elems()); o++ {
			if pat.FitsElem(sp, o) != (e == o) {
				t.Errorf("exact pattern %s: fits element %d is %v", xpath.Path(pat), o, e != o)
			}
		}
	}
}
