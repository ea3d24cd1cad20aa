package dom_test

import (
	"slices"
	"strings"
	"testing"
	"time"

	"ceres/internal/dom"
	"ceres/internal/websim"
)

// streamAttrs mirrors core's structuralAttrs plus "class" first, so the
// signature path is exercised.
var streamAttrs = []string{"class", "id", "itemprop", "itemtype", "property"}

// diffStream asserts that one streaming pass over html produces records
// bit-identical to Parse + the finalized-tree accessors: same elements in
// document order (tags, symbols, parents, attribute values, element
// indices, sibling lists, same-tag ordinals, bounded own/subtree text),
// same text fields (text, parent, XPath), and the same routing signature.
func diffStream(t *testing.T, html string, maxText int) {
	t.Helper()
	sc := dom.NewStreamScratch()
	p := sc.Stream([]byte(html), dom.StreamOptions{
		MaxText:   maxText,
		Attrs:     streamAttrs,
		Signature: true,
	})
	doc := dom.Parse(html)
	defer doc.Release()

	// Elements: stream records are start-tag order, i.e. pre-order.
	nodes := []*dom.Node{doc}
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode {
			nodes = append(nodes, n)
		}
		return true
	})
	if p.Elems() != len(nodes) {
		t.Fatalf("element records: stream %d, dom %d", p.Elems(), len(nodes))
	}
	rec := make(map[*dom.Node]int32, len(nodes))
	for i, n := range nodes {
		rec[n] = int32(i)
	}
	for i := 1; i < len(nodes); i++ {
		n := nodes[i]
		e := int32(i)
		if got, want := p.Tag(e), n.Tag; got != want {
			t.Fatalf("elem %d tag: stream %q, dom %q", i, got, want)
		}
		if got, want := p.TagSymOf(e), dom.TagSym(n.Tag); got != want {
			t.Fatalf("elem %d (%s) sym: stream %d, dom %d", i, n.Tag, got, want)
		}
		if got, want := p.Parent(e), rec[n.Parent]; got != want {
			t.Fatalf("elem %d (%s) parent: stream %d, dom %d", i, n.Tag, got, want)
		}
		if got, want := int(p.ElemIndex(e)), n.ElementIndex(); got != want {
			t.Fatalf("elem %d (%s) elemIndex: stream %d, dom %d", i, n.Tag, got, want)
		}
		sibs := n.ElementSiblings()
		got := p.ElemSiblings(e)
		if len(got) != len(sibs) {
			t.Fatalf("elem %d (%s) siblings: stream %d, dom %d", i, n.Tag, len(got), len(sibs))
		}
		for j, s := range sibs {
			if got[j] != rec[s] {
				t.Fatalf("elem %d (%s) sibling %d: stream rec %d, dom rec %d", i, n.Tag, j, got[j], rec[s])
			}
		}
		for ai, key := range streamAttrs {
			gv, gok := p.AttrValue(e, ai)
			wv, wok := n.Attr(key)
			if gok != wok || string(gv) != wv {
				t.Fatalf("elem %d (%s) attr %s: stream %q/%v, dom %q/%v", i, n.Tag, key, gv, gok, wv, wok)
			}
		}
		// A subtree's text is probeable exactly when all of it fits.
		wantSub := n.Text()
		wantOK := len(wantSub) <= maxText
		if !wantOK {
			wantSub = ""
		}
		gotSub, gotOK := p.SubText(e, maxText)
		if gotOK != wantOK || string(gotSub) != wantSub {
			t.Fatalf("elem %d (%s) subtext(max %d): stream %q/%v, dom %q/%v",
				i, n.Tag, maxText, gotSub, gotOK, wantSub, wantOK)
		}
		own := n.OwnText()
		gotOwn, probeable := p.OwnText(e)
		if probeable {
			if string(gotOwn) != own {
				t.Fatalf("elem %d (%s) owntext: stream %q, dom %q", i, n.Tag, gotOwn, own)
			}
		} else if len(own) <= maxText {
			t.Fatalf("elem %d (%s) owntext overflowed but dom text %q fits %d", i, n.Tag, own, maxText)
		}
	}

	// Text fields.
	fields := dom.TextFields(doc)
	if p.Fields() != len(fields) {
		t.Fatalf("fields: stream %d, dom %d", p.Fields(), len(fields))
	}
	for i, n := range fields {
		if got, want := string(p.FieldText(i)), n.Text(); got != want {
			t.Fatalf("field %d text: stream %q, dom %q", i, got, want)
		}
		if got, want := p.FieldParent(i), rec[n.Parent]; got != want {
			t.Fatalf("field %d parent: stream %d, dom %d", i, got, want)
		}
		if got, want := string(p.AppendFieldXPath(nil, i)), n.XPath(); got != want {
			t.Fatalf("field %d xpath: stream %q, dom %q", i, got, want)
		}
	}

	// Routing signature.
	want := treeSignature(doc)
	got := p.AppendSignature(nil)
	if len(got) != len(want) {
		t.Fatalf("signature: stream %d keys, dom %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("signature key %d: stream %q, dom %q", i, got[i], want[i])
		}
	}
}

// treeSignature is the signature AppendSignature lists, read off the tree:
// per element, its last three ancestor-or-self tags joined with '/', and
// ".class" when its class attribute is non-empty; sorted, without
// duplicates.
func treeSignature(doc *dom.Node) []string {
	var keys []string
	doc.Walk(func(n *dom.Node) bool {
		if n.Type != dom.ElementNode {
			return true
		}
		key := n.Tag
		if p := n.Parent; p != nil && p.Type == dom.ElementNode {
			key = p.Tag + "/" + key
			if gp := p.Parent; gp != nil && gp.Type == dom.ElementNode {
				key = gp.Tag + "/" + key
			}
		}
		if c, ok := n.Attr("class"); ok && c != "" {
			key += "." + c
		}
		keys = append(keys, key)
		return true
	})
	slices.Sort(keys)
	return slices.Compact(keys)
}

// edgeCases are handcrafted pages exercising the parser's recovery rules:
// each must stream to records identical to the DOM path.
var edgeCases = []struct {
	name string
	html string
}{
	{"simple", `<html><body><div class="a">Hello <b>world</b></div></body></html>`},
	{"unclosed tags", `<html><body><div><p>one<p>two<div>three`},
	{"auto close list", `<ul><li>a<li>b<li>c</ul><dl><dt>t<dd>d<dt>t2`},
	{"auto close table", `<table><thead><tr><th>h1<th>h2<tbody><tr><td>a<td>b<tr><td>c<tfoot><tr><td>f</table>`},
	{"comment in table", `<table><tr><td>a</td><!-- split --><td>b</td></tr><!-- tail --></table>`},
	{"comment splits text", `x<!-- c -->y`},
	{"doctype mid text", `a<!doctype html>b<div>c</div>`},
	{"raw text script", `<div>before<script>if (a < b) { x("</div>"); }</script>after</div>`},
	{"raw text style", `<style>p > a { color: red }</style><p>text</p>`},
	{"textarea entities", `<textarea>&amp; raw &lt;b&gt;</textarea><span>tail</span>`},
	{"title field", `<html><head><title>  The &amp; Title  </title></head><body>b</body></html>`},
	{"title empty", `<title>   </title><p>x</p>`},
	{"unclosed raw", `<div>a<script>never closed...`},
	{"stray end tags", `<div>a</span>b</div>c</p>d`},
	{"lone lt", `<div>1 < 2 and 3<4</div>`},
	{"entities", `<p>&copy; 2024 &mdash; caf&eacute; &#233; &#xE9; &#x2014; &bogus; &amp</p>`},
	{"entity numeric signs", `<p>&#+65; &#-5; &#0; &#x110000; &#9999999999;</p>`},
	{"entity length bound", `<p>&#000000000000000000000000000065; &#0000000000000000000000000000065;</p>`},
	{"self closing", `<div><br/><img src=x/><span/>text</span></div>`},
	{"self closing raw", `<div><script/>not raw</div>`},
	{"void tags", `<div>a<br>b<hr>c<img src="i.png">d</div>`},
	{"duplicate attrs", `<div class="first" class="second" id="" id="later">x</div>`},
	{"attr forms", `<div class = 'sq' id=unquoted itemprop data-x="&quot;q&quot;">v</div>`},
	{"attr malformed", `<div ="oops" class="ok">v</div>`},
	{"block closes p", `<p>para<div>block</div><p>p2<table><tr><td>c</table>`},
	{"nested p no close", `<p>a<span>b</span>c<p>d`},
	{"whitespace text", "<div>  \t\n  </div><span> a  b  c </span>"},
	{"deep nesting", `<a1><a2><a3><a4><a5><a6><a7><a8>deep</a8></a7></a6></a5></a4></a3></a2></a1>`},
	{"text at top level", `leading<div>mid</div>trailing`},
	{"end tag case fold", `<DIV CLASS="X">a</DIV><P>b</ P >`},
	{"empty page", ``},
	{"only text", `just text, no tags &amp; one entity`},
	{"only comment", `<!-- nothing else -->`},
	{"unclosed comment", `a<!-- never ends`},
	{"unclosed tag at eof", `<div class="x`},
	{"mixed case raw", `<SCRIPT>x</ScRiPt><p>after</p>`},
}

// edgeMaxTexts are the text bounds every edge case is streamed under: none,
// shorter than most fields, around a field's length, the serve path's
// usual bound, and no bound in practice.
var edgeMaxTexts = []int{0, 3, 12, 40, 1 << 20}

func TestStreamMatchesDOMEdgeCases(t *testing.T) {
	for _, tc := range edgeCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, maxText := range edgeMaxTexts {
				diffStream(t, tc.html, maxText)
			}
		})
	}
}

// FuzzStreamMatchesDOM holds the lexer's two consumers to each other on
// arbitrary bytes: neither panics, and every record, field, XPath and
// signature key of the stream pass equals Parse + the tree accessors. The
// committed corpus (testdata/fuzz) adds one websim page under each of the
// root package's six malformed-HTML mutators and the hostile pages below
// at 1 KB.
func FuzzStreamMatchesDOM(f *testing.F) {
	for _, tc := range edgeCases {
		for _, maxText := range edgeMaxTexts {
			f.Add(tc.html, maxText)
		}
	}
	f.Fuzz(func(t *testing.T, html string, maxText int) {
		diffStream(t, html, maxText)
	})
}

// hostilePages are inputs that cost quadratic time before the text run was
// collected in one buffer (the first two, in Parse), before end tags were
// counted per name (the third, in the stream pass) and before the entity
// decoder stopped looking for ';' after 32 bytes (the fourth, in both).
// Parse resolves an end tag that does not close the top element through
// per-name open counts, so the third is bounded in Parse too.
var hostilePages = []struct {
	name       string
	page       func(size int) string
	size       int // bytes, for the wall bounds
	diffSize   int // bytes, for diffStream
	boundParse bool
}{
	{"lone lt splits a text run", func(n int) string { return strings.Repeat("< ", n/2) }, 400 << 10, 400 << 10, true},
	{"stray end tags split a text run", func(n int) string { return strings.Repeat("a</x>", n/5) }, 500 << 10, 500 << 10, true},
	{"stray end tags under a deep stack", func(n int) string {
		return strings.Repeat("<a>", n/7) + strings.Repeat("</b>", n/7)
	}, 280 << 10, 35 << 10, true},
	{"bare ampersands", func(n int) string { return strings.Repeat("&", n) }, 1 << 20, 1 << 20, true},
	// Training reads pages through the stream pass, whose stack is a
	// slice. The tree is not bounded: the recursive Node.Text overflows
	// the goroutine stack at 4 M levels, and only vertex and tests reach
	// it now.
	{"div nesting", divNesting, 500 << 10, 10 << 10, false},
}

// divNesting nests <div> elements n bytes deep around one text field.
func divNesting(n int) string {
	return strings.Repeat("<div>", n/5) + "x"
}

// hostileBound is ten times what the slowest of them takes with the race
// detector on (3–70 ms without it, 0.18 s with) and under what the fastest
// took before (2.6 s without it).
const hostileBound = 2 * time.Second

func TestHostilePages(t *testing.T) {
	for _, tc := range hostilePages {
		t.Run(tc.name, func(t *testing.T) {
			diffStream(t, tc.page(tc.diffSize), 40)
			html := tc.page(tc.size)
			start := time.Now()
			dom.NewStreamScratch().Stream([]byte(html), dom.StreamOptions{MaxText: 40, Attrs: streamAttrs, Signature: true})
			if d := time.Since(start); d > hostileBound {
				t.Errorf("Stream of %d bytes took %v, bound %v", len(html), d, hostileBound)
			}
			if !tc.boundParse {
				return
			}
			start = time.Now()
			dom.Parse(html).Release()
			if d := time.Since(start); d > hostileBound {
				t.Errorf("Parse of %d bytes took %v, bound %v", len(html), d, hostileBound)
			}
		})
	}
}

func TestStreamMatchesDOMWebsim(t *testing.T) {
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: 3, Scale: 0.02, MaxSitePages: 12})
	pages := 0
	for _, site := range crawl.Sites {
		for _, pg := range site.Pages {
			diffStream(t, pg.HTML, 40)
			pages++
		}
		if pages > 120 {
			break
		}
	}
	if pages == 0 {
		t.Fatal("websim generated no pages")
	}
}

func TestStreamFieldsDriver(t *testing.T) {
	html := `<html><body><div class="a">Hello</div><p>one <b>two</b></p></body></html>`
	doc := dom.Parse(html)
	defer doc.Release()
	want := dom.TextFields(doc)
	i := 0
	dom.StreamFields([]byte(html), func(f *dom.StreamField) {
		if i >= len(want) {
			t.Fatalf("extra field %q", f.Text())
		}
		n := want[i]
		if got := string(f.Text()); got != n.Text() {
			t.Fatalf("field %d: stream %q, dom %q", i, got, n.Text())
		}
		if got := string(f.AppendXPath(nil)); got != n.XPath() {
			t.Fatalf("field %d xpath: stream %q, dom %q", i, got, n.XPath())
		}
		if f.Page().Tag(f.Parent()) != n.Parent.Tag && n.Parent.Type == dom.ElementNode {
			t.Fatalf("field %d parent tag mismatch", i)
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("fields: stream %d, dom %d", i, len(want))
	}
}

func TestStreamScratchReuse(t *testing.T) {
	sc := dom.NewStreamScratch()
	for round := 0; round < 3; round++ {
		for _, tc := range edgeCases {
			p := sc.Stream([]byte(tc.html), dom.StreamOptions{MaxText: 40, Attrs: streamAttrs, Signature: true})
			doc := dom.Parse(tc.html)
			fields := dom.TextFields(doc)
			if p.Fields() != len(fields) {
				t.Fatalf("round %d %s: stream %d fields, dom %d", round, tc.name, p.Fields(), len(fields))
			}
			for i, n := range fields {
				if string(p.FieldText(i)) != n.Text() {
					t.Fatalf("round %d %s field %d: %q vs %q", round, tc.name, i, p.FieldText(i), n.Text())
				}
			}
			doc.Release()
		}
	}
}
