package dom

import "testing"

func TestXPathGeneration(t *testing.T) {
	doc := Parse(`<html><body><div><a>one</a></div><div><a>two</a><a>three</a></div></body></html>`)
	as := doc.FindAll("a")
	if len(as) != 3 {
		t.Fatalf("want 3 anchors")
	}
	want := []string{
		"/html[1]/body[1]/div[1]/a[1]",
		"/html[1]/body[1]/div[2]/a[1]",
		"/html[1]/body[1]/div[2]/a[2]",
	}
	for i, a := range as {
		if got := a.XPath(); got != want[i] {
			t.Errorf("anchor %d XPath = %q, want %q", i, got, want[i])
		}
	}
	// Text node paths.
	txt := as[2].Children[0]
	if got := txt.XPath(); got != "/html[1]/body[1]/div[2]/a[2]/text()[1]" {
		t.Errorf("text XPath = %q", got)
	}
	if doc.XPath() != "/" {
		t.Errorf("document XPath = %q", doc.XPath())
	}
}

// TestXPathRoundTrip checks the invariant that every node's generated XPath
// resolves back to that exact node.
func TestXPathRoundTrip(t *testing.T) {
	doc := Parse(samplePage)
	count := 0
	doc.Walk(func(n *Node) bool {
		if n.Type == DocumentNode {
			return true
		}
		got := ResolveXPath(doc, n.XPath())
		if got != n {
			t.Errorf("XPath %q resolved to %v, not the originating node", n.XPath(), got)
		}
		count++
		return true
	})
	if count < 30 {
		t.Fatalf("sample page too small for a meaningful roundtrip test: %d nodes", count)
	}
}

func TestResolveXPathMisses(t *testing.T) {
	doc := Parse(`<html><body><div>x</div></body></html>`)
	for _, p := range []string{
		"", "relative/path", "/html[1]/body[1]/div[2]", "/html[1]/span[1]",
		"/html[1]/body[1]/div[0]", "/html[1]/body[1]/div[x]", "/html[1]/body[1]/div",
	} {
		if got := ResolveXPath(doc, p); got != nil {
			t.Errorf("ResolveXPath(%q) = %v, want nil", p, got)
		}
	}
}

// TestRenderParseStable checks Parse∘Render∘Parse structural stability.
func TestRenderParseStable(t *testing.T) {
	doc1 := Parse(samplePage)
	html1 := Render(doc1)
	doc2 := Parse(html1)
	html2 := Render(doc2)
	if html1 != html2 {
		t.Errorf("render/parse not stable:\nfirst:  %s\nsecond: %s", html1, html2)
	}
	// Same set of XPaths for text fields.
	f1, f2 := TextFields(doc1), TextFields(doc2)
	if len(f1) != len(f2) {
		t.Fatalf("text field count changed: %d -> %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i].XPath() != f2[i].XPath() {
			t.Errorf("field %d path changed: %q -> %q", i, f1[i].XPath(), f2[i].XPath())
		}
		if f1[i].Data != f2[i].Data {
			t.Errorf("field %d text changed: %q -> %q", i, f1[i].Data, f2[i].Data)
		}
	}
}

func TestCollapseSpace(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""}, {"  ", ""}, {" a  b\tc\n", "a b c"}, {"x", "x"},
	}
	for _, c := range cases {
		if got := CollapseSpace(c.in); got != c.want {
			t.Errorf("CollapseSpace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// BenchmarkParseDetailPage and BenchmarkStreamDetailPage time the lexer
// under each of its two consumers on the same page.
func BenchmarkParseDetailPage(b *testing.B) {
	b.SetBytes(int64(len(samplePage)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(samplePage)
	}
}

// The stream pass over a warm scratch must read 0 allocs/op.
func BenchmarkStreamDetailPage(b *testing.B) {
	src := []byte(samplePage)
	opts := StreamOptions{MaxText: 40, Attrs: []string{"class", "id", "itemprop", "itemtype", "property"}, Signature: true}
	sc := NewStreamScratch()
	sc.Stream(src, opts)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Stream(src, opts)
	}
}
