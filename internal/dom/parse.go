package dom

import (
	"bytes"
	"strings"
	"sync"
)

// rawTextTags are elements whose content is not lexed as markup.
var rawTextTags = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
}

// voidTags are elements that never have children or end tags.
var voidTags = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// blockTags trigger the implicit close of an open <p>.
var blockTags = map[string]bool{
	"address": true, "article": true, "aside": true, "blockquote": true,
	"div": true, "dl": true, "fieldset": true, "footer": true, "form": true,
	"h1": true, "h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"header": true, "hr": true, "main": true, "nav": true, "ol": true,
	"p": true, "pre": true, "section": true, "table": true, "ul": true,
}

// autoClose maps a start tag to the set of open tags it implicitly closes
// when they are the nearest open element (the subset of the HTML5 implied
// end-tag rules that template-generated pages exercise).
var autoClose = map[string]map[string]bool{
	"li":     {"li": true},
	"dt":     {"dt": true, "dd": true},
	"dd":     {"dt": true, "dd": true},
	"tr":     {"tr": true, "td": true, "th": true},
	"td":     {"td": true, "th": true},
	"th":     {"td": true, "th": true},
	"thead":  {"tr": true, "td": true, "th": true},
	"tbody":  {"thead": true, "tr": true, "td": true, "th": true},
	"tfoot":  {"tbody": true, "tr": true, "td": true, "th": true},
	"option": {"option": true},
}

// protoNode is one node as Parse builds it, before the page's node count
// is known: its kind, strings and attribute span, the index of its parent
// and how many children it collects.
type protoNode struct {
	typ            NodeType
	parent         int32
	kids           int32
	attrLo, attrHi int32 // into parseScratch.attrs
	tag, data      string
}

// parseScratch is what one Parse builds the page in and then drops: the
// proto nodes, their attributes, the open-element stack and the lexer's
// copy of the page. Pooled, so a parse allocates only what the returned
// tree keeps.
type parseScratch struct {
	nodes []protoNode
	attrs []Attr
	stack []int32 // indices into nodes; stack[0] is the document
	page  []byte  // the lexer's copy of src
	buf   []byte  // a split text run's pieces; text's decode buffer
	// open counts the open elements per tag name once a page has had an
	// end tag that does not close the top element; nil until then.
	open     map[string]int32
	ordinals map[string]int32 // build's per-kind sibling counters
}

var parseScratchPool = sync.Pool{New: func() any {
	// A stack this deep holds a template page without growing.
	return &parseScratch{stack: make([]int32, 0, 32), ordinals: make(map[string]int32, 8)}
}}

// treeBuilder is Parse's state. The lexer runs over a private copy of the
// page and reports offsets; every string a node keeps is sliced out of src
// by them, so node strings stay substrings of the page.
type treeBuilder struct {
	*parseScratch
	src string
	lx  lexer
	// The open text run: adjacent text tokens under one parent (a lone
	// '<', a doctype or a stray end tag splits a run into several) are one
	// node, as in browsers, which keeps Parse∘Render∘Parse an identity on
	// text nodes. run is that node's index, -1 when no run is open; a
	// split run collects its pieces in buf and sets data once, when it
	// ends.
	run   int32
	split bool
}

// text returns src[lo:hi] with character references resolved: the page's
// own substring when it holds none.
func (b *treeBuilder) text(lo, hi int) string {
	raw := b.lx.src[lo:hi]
	if bytes.IndexByte(raw, '&') < 0 {
		return b.src[lo:hi]
	}
	b.buf = appendDecodeEntities(b.buf[:0], raw)
	return string(b.buf)
}

// node appends a proto node of type t under parent and returns its index.
func (b *treeBuilder) node(t NodeType, parent int32) int32 {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, protoNode{typ: t, parent: parent})
	b.nodes[parent].kids++
	return i
}

// addText appends the text token src[lo:hi] to the open run, opening one
// if need be. A run of one piece keeps that piece, decoded.
func (b *treeBuilder) addText(lo, hi int) {
	if b.run < 0 {
		b.run = b.node(TextNode, b.top())
		b.nodes[b.run].data = b.text(lo, hi)
		return
	}
	if !b.split {
		b.buf = append(b.buf[:0], b.nodes[b.run].data...)
		b.split = true
	}
	b.buf = appendDecodeEntities(b.buf, b.lx.src[lo:hi])
}

// endRun closes the open text run, if any: a child is about to follow it
// or the stack to pop.
func (b *treeBuilder) endRun() {
	if b.split {
		b.nodes[b.run].data = string(b.buf)
		b.split = false
	}
	b.run = -1
}

// top is the innermost open element (the document when none is open).
func (b *treeBuilder) top() int32 { return b.stack[len(b.stack)-1] }

// topTag is the tag of the innermost open element ("" for the document).
func (b *treeBuilder) topTag() string { return b.nodes[b.top()].tag }

func (b *treeBuilder) push(i int32) {
	b.stack = append(b.stack, i)
	if b.open != nil {
		b.open[b.nodes[i].tag]++
	}
}

// popTo closes every open element above stack depth d.
func (b *treeBuilder) popTo(d int) {
	if b.open != nil {
		for _, i := range b.stack[d:] {
			b.open[b.nodes[i].tag]--
		}
	}
	b.stack = b.stack[:d]
}

// endTag closes the innermost open element named name and everything
// opened inside it; with none open, the end tag is stray and ignored,
// which leaves an open text run open. Closing the top element is one
// compare. Any other end tag is resolved through the per-name open
// counts, built from the stack the first time a page needs them and kept
// from then on, so a stray end tag costs a lookup, not a scan of the
// stack: <a>×40k then </b>×40k would otherwise be quadratic.
func (b *treeBuilder) endTag(name string) {
	d := len(b.stack) - 1
	if d >= 1 && b.topTag() == name {
		b.endRun()
		b.popTo(d)
		return
	}
	if b.open == nil {
		b.open = make(map[string]int32)
		for _, i := range b.stack[1:] {
			b.open[b.nodes[i].tag]++
		}
	}
	if b.open[name] == 0 {
		return
	}
	for ; d >= 1; d-- {
		if b.nodes[b.stack[d]].tag == name {
			b.endRun()
			b.popTo(d)
			return
		}
	}
}

// Release is a no-op: a parsed tree's storage is sized to its page and
// belongs to the garbage collector, and there is nothing to recycle. It
// is kept for existing callers (the benchmark probe releases every page it
// parses).
func (n *Node) Release() {}

// Parse builds a DOM tree from HTML source. It never fails: malformed
// markup degrades to a best-effort tree, mirroring browser behaviour, which
// is what a web-extraction system must tolerate. The returned node is a
// DocumentNode.
func Parse(src string) *Node {
	s := parseScratchPool.Get().(*parseScratch)
	b := treeBuilder{parseScratch: s, src: src, run: -1}
	b.nodes = append(b.nodes[:0], protoNode{typ: DocumentNode})
	b.stack = append(b.stack[:0], 0)
	b.page = append(b.page[:0], src...)
	b.lx.reset(b.page)
	for {
		switch kind, lo, hi := b.lx.next(); kind {
		case lexEOF:
			b.endRun()
			doc := b.build()
			s.reset()
			parseScratchPool.Put(s)
			return doc
		case lexText:
			b.addText(lo, hi)
		case lexComment:
			b.endRun()
			b.nodes[b.node(CommentNode, b.top())].data = src[lo:hi]
		case lexDoctype:
			// Dropped: the tree starts at <html>, and an open text run
			// stays open.
		case lexStartTag:
			b.endRun()
			b.startTag(strings.ToLower(src[lo:hi]))
		case lexEndTag:
			b.endTag(strings.ToLower(strings.TrimSpace(src[lo:hi])))
		}
	}
}

// reset empties the scratch for the pool, dropping every string it holds
// so a pooled scratch pins no page.
func (s *parseScratch) reset() {
	clear(s.nodes)
	s.nodes = s.nodes[:0]
	clear(s.attrs)
	s.attrs = s.attrs[:0]
	s.open = nil
	clear(s.ordinals)
}

// build turns the proto nodes into the tree Parse returns, in storage
// sized to the page: one array of exactly its nodes, one of exactly its
// child pointers, one of exactly its attributes. Proto nodes are in
// document order, so a parent precedes its children and a node's children
// arrive in order.
func (b *treeBuilder) build() *Node {
	protos := b.nodes
	nodes := make([]Node, len(protos))
	ptrs := make([]*Node, len(protos)-1)
	var attrs []Attr
	if len(b.attrs) > 0 {
		attrs = append([]Attr(nil), b.attrs...)
	}
	for i := range protos {
		pr, n := &protos[i], &nodes[i]
		n.Type, n.Tag, n.Data = pr.typ, pr.tag, pr.data
		if pr.attrHi > pr.attrLo {
			n.Attrs = attrs[pr.attrLo:pr.attrHi:pr.attrHi]
		}
		if k := int(pr.kids); k > 0 {
			n.Children = ptrs[:0:k]
			ptrs = ptrs[k:]
		}
		if i > 0 {
			p := &nodes[pr.parent]
			n.Parent = p
			p.Children = append(p.Children, n)
		}
	}
	for i := range nodes {
		nodes[i].numberChildren(b.ordinals)
	}
	return &nodes[0]
}

// startTag appends the element of the start tag the lexer just returned,
// after the end tags it implies, and pushes it unless it is self-closing,
// void or raw text.
func (b *treeBuilder) startTag(tag string) {
	selfClosing := b.lx.selfClosing
	if !selfClosing {
		if closers, ok := autoClose[tag]; ok {
			d := len(b.stack)
			for d > 1 && closers[b.nodes[b.stack[d-1]].tag] {
				d--
			}
			b.popTo(d)
		}
		if blockTags[tag] && len(b.stack) > 1 && b.topTag() == "p" {
			b.popTo(len(b.stack) - 1)
		}
	}
	el := b.node(ElementNode, b.top())
	lo := int32(len(b.attrs))
	for _, a := range b.lx.attrs {
		b.attrs = append(b.attrs, Attr{Key: strings.ToLower(b.src[a.keyLo:a.keyHi]), Val: b.text(a.valLo, a.valHi)})
	}
	pr := &b.nodes[el]
	pr.tag, pr.attrLo, pr.attrHi = tag, lo, int32(len(b.attrs))
	switch {
	case selfClosing || voidTags[tag]:
		// Appended only: no children, no raw-text scan.
	case rawTextTags[tag]:
		lo, hi := b.lx.rawText(tag)
		if lo == hi {
			return
		}
		tn := b.node(TextNode, el)
		if tag == "title" || tag == "textarea" {
			b.nodes[tn].data = b.text(lo, hi)
		} else {
			b.nodes[tn].data = b.src[lo:hi]
		}
	default:
		b.push(el)
	}
}

// TextFields returns every text node in the document whose collapsed
// content is non-empty, in document order, excluding script/style/textarea
// content and comments. These are the units of annotation and extraction
// (paper §2.1: entity names correspond to full texts in a DOM node).
func TextFields(doc *Node) []*Node {
	var out []*Node
	doc.Walk(func(n *Node) bool {
		if n.Type == ElementNode && (n.Tag == "script" || n.Tag == "style" || n.Tag == "textarea") {
			return false
		}
		if n.Type == TextNode && n.Text() != "" {
			out = append(out, n)
		}
		return true
	})
	return out
}
