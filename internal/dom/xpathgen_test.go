package dom

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

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

// TestAppendCollapseBound holds the bounded collapse to CollapseSpace at
// every bound from 0 to past the collapsed length: over exactly when the
// whole text does not fit, and when it fits, the same bytes. The inputs
// put words of 2-, 3- and 4-byte runes across the bound and Unicode
// spaces exactly at the cut, where a scan that stops early could mistake
// a word's end.
func TestAppendCollapseBound(t *testing.T) {
	for _, in := range []string{
		"", " \t\n", "x", "abc def", "  lead and trail  ",
		"éééé éé", "☃☃☃ ☃☃", "😀😀 😀😀😀",
		"ab\u2028cd\u2029ef", "é\u00a0☃\u3000😀", "abc\u2028", "\u2028abc", "ab\u0085cd",
		"one\xfftwo \xe2\x82 three", "a\xc2", "\xe2\x80 x",
		strings.Repeat("x", 100), strings.Repeat("é", 50) + " " + strings.Repeat("😀", 30),
		`{"rows":[{"id":1,"tag":"t1"},{"id":2,"tag":"t2"}]}`,
	} {
		want := CollapseSpace(in)
		for max := 0; max <= len(want)+2; max++ {
			got, over := appendCollapse([]byte("kept:"), []byte(in), max)
			if over != (len(want) > max) {
				t.Errorf("appendCollapse(%q, %d): over = %v, collapsed length %d", in, max, over, len(want))
			}
			if !over && string(got) != "kept:"+want {
				t.Errorf("appendCollapse(%q, %d) = %q, want %q", in, max, got[len("kept:"):], want)
			}
		}
		if got, over := appendCollapse(nil, []byte(in), math.MaxInt); over || string(got) != want {
			t.Errorf("appendCollapse(%q, unbounded) = %q, %v; want %q", in, got, over, want)
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
func BenchmarkStreamDetailPage(b *testing.B) { benchStream(b, []byte(samplePage)) }

// BenchmarkStreamChromePage is the stream pass over the same page wrapped
// as serve-bulk wraps its pages: 10 KB of stylesheet, 9 KB of script and a
// 6 KB JSON data island without one space, so raw-text bodies the
// extractor never reads are most of the bytes.
func BenchmarkStreamChromePage(b *testing.B) {
	var style, script, island strings.Builder
	for i := 0; style.Len() < 10<<10; i++ {
		fmt.Fprintf(&style, ".c%d{margin:%dpx;color:#%06x;font:%dpx/1.4 \"Helvetica Neue\",sans-serif}\n", i, i%32, i*7919%(1<<24), 10+i%8)
	}
	for i := 0; script.Len() < 9<<10; i++ {
		fmt.Fprintf(&script, "function f%d(a,b){if(a<b&&b>%d){return \"<div>\"+a+\"</div>\";}return a*%d+b;}\n", i, i%100, i%1000)
	}
	island.WriteString(`{"rows":[`)
	for i := 0; island.Len() < 6<<10; i++ {
		fmt.Fprintf(&island, `{"id":%d,"score":%d.%d,"tag":"t%d"},`, i*7919%(1<<20), i%10, i%100, i%500)
	}
	island.WriteString("{}]}")
	page := strings.Replace(samplePage, "</head>", "<style>"+style.String()+"</style><script>"+script.String()+"</script></head>", 1)
	page = strings.Replace(page, "</body>", `<script type="application/json">`+island.String()+"</script></body>", 1)
	if len(page) < len(samplePage)+25<<10 {
		b.Fatalf("chrome page is %d bytes: samplePage has no </head> or </body> to wrap", len(page))
	}
	benchStream(b, []byte(page))
}

func benchStream(b *testing.B, src []byte) {
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
