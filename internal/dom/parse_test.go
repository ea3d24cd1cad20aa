package dom

import (
	"strings"
	"testing"
)

const samplePage = `<!DOCTYPE html>
<html>
<head><title>Do the Right Thing (1989) - IMDb</title>
<meta charset="utf-8">
<style>.x { color: red; }</style>
</head>
<body>
<div id="content" class="main">
  <h1 itemprop="name">Do the Right Thing</h1>
  <!-- infobox -->
  <table class="infobox">
    <tr><th>Director</th><td><a href="/name/1">Spike Lee</a></td></tr>
    <tr><th>Genres</th><td><a>Comedy</a> <a>Drama</a></td></tr>
  </table>
  <ul class="cast">
    <li><a href="/name/2">Danny Aiello</a>
    <li><a href="/name/3">Ossie Davis</a>
    <li><a href="/name/1">Spike Lee</a>
  </ul>
  <p>A hot day in Brooklyn &amp; a boiling point.
  <div class="reco">
    <span>Crooklyn</span>
  </div>
  <img src="poster.jpg" alt="poster">
  <script>var x = "<div>not a tag</div>";</script>
</div>
</body>
</html>`

// Tree helpers the tests of this package navigate fixtures with.

// FindAll returns all descendant elements (including n itself) with the
// given tag, in document order.
func (n *Node) FindAll(tag string) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.Type == ElementNode && m.Tag == tag {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Depth returns the number of ancestors between n and the root.
func (n *Node) Depth() int {
	d := 0
	for p := n.Parent; p != nil; p = p.Parent {
		d++
	}
	return d
}

// Ancestor returns the ancestor k levels above n (k=0 is n itself), or nil
// if the tree is not that deep.
func (n *Node) Ancestor(k int) *Node {
	for ; k > 0 && n != nil; k-- {
		n = n.Parent
	}
	return n
}

func TestParseBasicStructure(t *testing.T) {
	doc := Parse(samplePage)
	htmls := doc.FindAll("html")
	if len(htmls) != 1 {
		t.Fatalf("want exactly one <html>, got %d", len(htmls))
	}
	h1s := doc.FindAll("h1")
	if len(h1s) != 1 || h1s[0].Text() != "Do the Right Thing" {
		t.Fatalf("h1 parse failed: %v", h1s)
	}
	if v, _ := h1s[0].Attr("itemprop"); v != "name" {
		t.Errorf("itemprop attr = %q", v)
	}
	// Implied </li>: three list items, each one <a>.
	lis := doc.FindAll("li")
	if len(lis) != 3 {
		t.Fatalf("want 3 <li>, got %d", len(lis))
	}
	for _, li := range lis {
		if len(li.FindAll("a")) != 1 {
			t.Errorf("li should contain exactly one <a>: %q", li.Text())
		}
	}
	// <p> implicitly closed by <div class="reco">.
	ps := doc.FindAll("p")
	if len(ps) != 1 {
		t.Fatalf("want 1 <p>, got %d", len(ps))
	}
	if strings.Contains(ps[0].Text(), "Crooklyn") {
		t.Errorf("<p> should have been closed before the reco div")
	}
	if !strings.Contains(ps[0].Text(), "& a boiling point") {
		t.Errorf("entity not decoded in <p>: %q", ps[0].Text())
	}
	// Script content is raw and excluded from text fields.
	for _, f := range TextFields(doc) {
		if strings.Contains(f.Data, "not a tag") {
			t.Errorf("script content leaked into text fields")
		}
	}
	// Void element has no children.
	imgs := doc.FindAll("img")
	if len(imgs) != 1 || len(imgs[0].Children) != 0 {
		t.Errorf("img should be a void leaf")
	}
}

func TestParseTables(t *testing.T) {
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	trs := doc.FindAll("tr")
	if len(trs) != 2 {
		t.Fatalf("want 2 rows, got %d", len(trs))
	}
	if got := len(trs[0].FindAll("td")); got != 2 {
		t.Errorf("row 1: want 2 cells, got %d", got)
	}
	if got := len(trs[1].FindAll("td")); got != 1 {
		t.Errorf("row 2: want 1 cell, got %d", got)
	}
}

func TestParseAttributes(t *testing.T) {
	doc := Parse(`<div class='single' data-x=unquoted hidden ID="UP"><a href="?a=1&amp;b=2">x</a></div>`)
	div := doc.FindAll("div")[0]
	if v, _ := div.Attr("class"); v != "single" {
		t.Errorf("single-quoted attr: %q", v)
	}
	if v, _ := div.Attr("data-x"); v != "unquoted" {
		t.Errorf("unquoted attr: %q", v)
	}
	if _, ok := div.Attr("hidden"); !ok {
		t.Errorf("boolean attr missing")
	}
	if v, _ := div.Attr("id"); v != "UP" {
		t.Errorf("attr keys must be lowercased, values preserved: %q", v)
	}
	a := doc.FindAll("a")[0]
	if v, _ := a.Attr("href"); v != "?a=1&b=2" {
		t.Errorf("entity in attr: %q", v)
	}
	if div.AttrOr("missing", "dflt") != "dflt" {
		t.Errorf("AttrOr default failed")
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"",
		"<",
		"<<><>><",
		"just text, no tags",
		"<div><span>unclosed",
		"</div>stray end tag",
		"<div></span></div>",
		"<a href=>empty</a>",
		"<!-- unterminated comment",
		"<div 🙂=1>x</div>",
		"a < b but > c",
	}
	for _, src := range cases {
		doc := Parse(src) // must not panic
		if doc == nil {
			t.Fatalf("Parse(%q) returned nil", src)
		}
	}
	// "a < b but > c": the '<' does not start a tag, so it is text.
	doc := Parse("a < b but > c")
	if got := doc.Text(); got != "a < b but > c" {
		t.Errorf("stray angle brackets: %q", got)
	}
}

func TestEntityDecoding(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a &amp; b", "a & b"},
		{"&lt;tag&gt;", "<tag>"},
		{"&#65;&#x42;", "AB"},
		{"&unknown; stays", "&unknown; stays"},
		{"&copy; 2017", "© 2017"},
		{"Caf&eacute;", "Café"},
		{"A&mdash;B", "A—B"},
		{"&#0; bad", "&#0; bad"},
		{"& lone amp", "& lone amp"},
		{"100&nbsp;min", "100 min"},
		// A reference is at most 32 bytes before its ';'.
		{"&#" + strings.Repeat("0", 28) + "65;", "A"},
		{"&#" + strings.Repeat("0", 29) + "65;", "&#" + strings.Repeat("0", 29) + "65;"},
	}
	for _, c := range cases {
		if got := string(appendDecodeEntities(nil, []byte(c.in))); got != c.want {
			t.Errorf("appendDecodeEntities(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTextHelpers(t *testing.T) {
	doc := Parse(`<div>  Hello <b>big</b>
	world </div>`)
	div := doc.FindAll("div")[0]
	if got := div.Text(); got != "Hello big world" {
		t.Errorf("Text() = %q", got)
	}
	if got := div.OwnText(); got != "Hello world" {
		t.Errorf("OwnText() = %q", got)
	}
}

func TestTextFieldsOrder(t *testing.T) {
	doc := Parse(`<div><span>one</span><span>two</span><b>three</b></div>`)
	fields := TextFields(doc)
	if len(fields) != 3 {
		t.Fatalf("want 3 fields, got %d", len(fields))
	}
	want := []string{"one", "two", "three"}
	for i, f := range fields {
		if CollapseSpace(f.Data) != want[i] {
			t.Errorf("field %d = %q, want %q", i, f.Data, want[i])
		}
	}
}

func TestNodeNavigation(t *testing.T) {
	doc := Parse(`<html><body><div><span>a</span><span>b</span></div></body></html>`)
	spans := doc.FindAll("span")
	if len(spans) != 2 {
		t.Fatalf("want 2 spans")
	}
	if spans[0].SiblingIndex() != 1 || spans[1].SiblingIndex() != 2 {
		t.Errorf("sibling indexes: %d, %d", spans[0].SiblingIndex(), spans[1].SiblingIndex())
	}
	div := doc.FindAll("div")[0]
	if spans[1].Ancestor(1) != div {
		t.Errorf("Ancestor(1) should be the div")
	}
	if !div.Contains(spans[0]) || spans[0].Contains(div) {
		t.Errorf("Contains misbehaving")
	}
	if spans[0].Root() != doc {
		t.Errorf("Root should be the document")
	}
	if spans[0].Depth() != 4 { // html/body/div/span
		t.Errorf("Depth = %d, want 4", spans[0].Depth())
	}
}
