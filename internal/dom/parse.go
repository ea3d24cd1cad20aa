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

// slabSize is the node count per arena slab: large enough that a typical
// page costs a handful of slab acquisitions, small enough that the last,
// partially used slab wastes little.
const slabSize = 128

// slabPool recycles node slabs across parses. Slabs are zeroed before
// they re-enter the pool, so a pooled slab never pins a released tree's
// strings and a fresh acquisition needs no clearing.
var slabPool sync.Pool // of *[]Node, len == cap == slabSize

// ptrSlabSize is the pointer count per child-slice slab. Child slices
// grow geometrically, so a slab serves many small slices and the rare
// slice that outgrows it falls back to the heap.
const ptrSlabSize = 256

// ptrSlabPool recycles the pointer slabs behind child slices, zeroed on
// release like slabPool.
var ptrSlabPool sync.Pool // of *[]*Node, len == cap == ptrSlabSize

// attrSlabSize is the attribute count per slab (Attr is two strings, so a
// slab is 2 KiB). Tags average a handful of attributes.
const attrSlabSize = 64

// attrSlabPool recycles attribute slabs, zeroed on release like slabPool.
var attrSlabPool sync.Pool // of *[]Attr, len == cap == attrSlabSize

// nodeArena hands out nodes from chunked slabs, so parsing a page costs a
// few slab acquisitions instead of one allocation per node. Child-pointer
// slices (Children, elemKids) draw from separate pointer slabs the same
// way. The tree pins every slab it draws from until Node.Release returns
// them to the pool; an unreleased tree simply keeps its slabs for the GC,
// so release is an optimization, never an obligation.
type nodeArena struct {
	slab      []Node
	slabs     []*[]Node // every node slab acquired, for release
	ptrSlab   []*Node   // current pointer slab
	ptrUsed   int
	ptrSlabs  []*[]*Node // every pointer slab acquired, for release
	attrSlab  []Attr     // current attribute slab
	attrUsed  int
	attrSlabs []*[]Attr // every attribute slab acquired, for release
}

func (a *nodeArena) node(t NodeType) *Node {
	if len(a.slab) == 0 {
		sp, _ := slabPool.Get().(*[]Node)
		if sp == nil {
			s := make([]Node, slabSize)
			sp = &s
		}
		a.slab = *sp
		a.slabs = append(a.slabs, sp)
	}
	n := &a.slab[0]
	a.slab = a.slab[1:]
	n.Type = t
	return n
}

// ptrs returns a zero-length pointer slice with capacity n carved from
// the arena's pointer slabs; oversized requests fall back to the heap.
// Abandoned predecessors of grown slices stay in their slab until release
// — geometric growth bounds the waste at one extra copy of the tree's
// pointers.
func (a *nodeArena) ptrs(n int) []*Node {
	if n > ptrSlabSize {
		return make([]*Node, 0, n)
	}
	if a.ptrSlab == nil || ptrSlabSize-a.ptrUsed < n {
		sp, _ := ptrSlabPool.Get().(*[]*Node)
		if sp == nil {
			s := make([]*Node, ptrSlabSize)
			sp = &s
		}
		a.ptrSlab = *sp
		a.ptrUsed = 0
		a.ptrSlabs = append(a.ptrSlabs, sp)
	}
	s := a.ptrSlab[a.ptrUsed : a.ptrUsed : a.ptrUsed+n]
	a.ptrUsed += n
	return s
}

// attrs returns zeroed storage for an element's n attributes, carved from
// the arena's attribute slabs (nil for none). Oversized attribute lists
// fall back to the heap.
func (a *nodeArena) attrs(n int) []Attr {
	if n == 0 {
		return nil
	}
	if n > attrSlabSize {
		return make([]Attr, n)
	}
	if a.attrSlab == nil || attrSlabSize-a.attrUsed < n {
		sp, _ := attrSlabPool.Get().(*[]Attr)
		if sp == nil {
			s := make([]Attr, attrSlabSize)
			sp = &s
		}
		a.attrSlab = *sp
		a.attrUsed = 0
		a.attrSlabs = append(a.attrSlabs, sp)
	}
	s := a.attrSlab[a.attrUsed : a.attrUsed+n : a.attrUsed+n]
	a.attrUsed += n
	return s
}

// appendChild is Parse's internal AppendChild. The tree is not yet
// finalized, so no caches can be stale — none of AppendChild's
// invalidation (including its ancestor walk) applies — and child slices
// grow through the arena's pointer slabs instead of the heap.
func (a *nodeArena) appendChild(n, c *Node) {
	c.Parent = n
	if len(n.Children) == cap(n.Children) {
		grown := a.ptrs(max(4, 2*cap(n.Children)))
		n.Children = append(grown, n.Children...)
	}
	n.Children = append(n.Children, c)
}

// release zeroes the arena's slabs and returns them to the pool. The
// caller must guarantee no node from this arena is reachable afterwards.
func (a *nodeArena) release() {
	for _, sp := range a.slabs {
		clear(*sp)
		slabPool.Put(sp)
	}
	a.slabs = nil
	a.slab = nil
	for _, sp := range a.ptrSlabs {
		clear(*sp)
		ptrSlabPool.Put(sp)
	}
	a.ptrSlabs = nil
	a.ptrSlab = nil
	a.ptrUsed = 0
	for _, sp := range a.attrSlabs {
		clear(*sp)
		attrSlabPool.Put(sp)
	}
	a.attrSlabs = nil
	a.attrSlab = nil
	a.attrUsed = 0
}

// Release recycles the node slabs backing the document's tree for future
// Parse calls. Only the DocumentNode returned by Parse carries the arena;
// calling Release on any other node is a no-op. After Release, every node
// of the tree — including n itself — is invalid: the single owner of a
// parsed page calls Release exactly when it discards the page. Strings
// previously read off the tree (Text, Data, attribute values) remain
// valid; they are independent of the node storage.
func (n *Node) Release() {
	if a := n.arena; a != nil {
		n.arena = nil
		a.release()
	}
}

// treeBuilder is Parse's state. The lexer runs over a private copy of the
// page and reports offsets; every string a node keeps is sliced out of src
// by them, so node strings stay substrings of the page.
type treeBuilder struct {
	src   string
	lx    lexer
	arena *nodeArena
	stack []*Node
	// The open text run: adjacent text tokens under one parent (a lone
	// '<', a doctype or a stray end tag splits a run into several) are one
	// node, as in browsers, which keeps Parse∘Render∘Parse an identity on
	// text nodes. run is that node, nil when no run is open; a split run
	// collects its pieces in buf and sets Data once, when it ends.
	run   *Node
	split bool
	buf   []byte // also text's decode buffer
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

// addText appends the text token src[lo:hi] to the open run, opening one
// if need be. A run of one piece keeps that piece, decoded.
func (b *treeBuilder) addText(lo, hi int) {
	if b.run == nil {
		b.run = b.arena.node(TextNode)
		b.run.Data = b.text(lo, hi)
		b.arena.appendChild(b.top(), b.run)
		return
	}
	if !b.split {
		b.buf = append(b.buf[:0], b.run.Data...)
		b.split = true
	}
	b.buf = appendDecodeEntities(b.buf, b.lx.src[lo:hi])
}

// endRun closes the open text run, if any: a child is about to follow it
// or the stack to pop.
func (b *treeBuilder) endRun() {
	if b.split {
		b.run.Data = string(b.buf)
		b.split = false
	}
	b.run = nil
}

func (b *treeBuilder) top() *Node { return b.stack[len(b.stack)-1] }

func (b *treeBuilder) pop() { b.stack = b.stack[:len(b.stack)-1] }

// Parse builds a DOM tree from HTML source. It never fails: malformed
// markup degrades to a best-effort tree, mirroring browser behaviour, which
// is what a web-extraction system must tolerate. The returned node is a
// DocumentNode.
func Parse(src string) *Node {
	// A stack this deep holds a template page without growing.
	b := treeBuilder{src: src, arena: new(nodeArena), stack: make([]*Node, 1, 32)}
	doc := b.arena.node(DocumentNode)
	doc.arena = b.arena
	b.stack[0] = doc
	b.lx.reset([]byte(src))
	for {
		switch kind, lo, hi := b.lx.next(); kind {
		case lexEOF:
			b.endRun()
			// Precompute the structural context featurization reads per
			// node, so it never re-walks the tree (see Node.Finalize).
			doc.Finalize()
			return doc
		case lexText:
			b.addText(lo, hi)
		case lexComment:
			b.endRun()
			cn := b.arena.node(CommentNode)
			cn.Data = src[lo:hi]
			b.arena.appendChild(b.top(), cn)
		case lexDoctype:
			// Dropped: the tree starts at <html>, and an open text run
			// stays open.
		case lexStartTag:
			b.endRun()
			b.startTag(strings.ToLower(src[lo:hi]))
		case lexEndTag:
			// Pop to the matching open element if one exists; otherwise
			// ignore the stray end tag, which leaves an open text run open.
			name := strings.ToLower(strings.TrimSpace(src[lo:hi]))
			for i := len(b.stack) - 1; i >= 1; i-- {
				if b.stack[i].Tag == name {
					b.endRun()
					b.stack = b.stack[:i]
					break
				}
			}
		}
	}
}

// startTag appends the element of the start tag the lexer just returned,
// after the end tags it implies, and pushes it unless it is self-closing,
// void or raw text.
func (b *treeBuilder) startTag(tag string) {
	selfClosing := b.lx.selfClosing
	if !selfClosing {
		if closers, ok := autoClose[tag]; ok {
			for len(b.stack) > 1 && closers[b.top().Tag] {
				b.pop()
			}
		}
		if blockTags[tag] && len(b.stack) > 1 && b.top().Tag == "p" {
			b.pop()
		}
	}
	el := b.arena.node(ElementNode)
	el.Tag, el.Attrs = tag, b.arena.attrs(len(b.lx.attrs))
	for i, a := range b.lx.attrs {
		el.Attrs[i] = Attr{Key: strings.ToLower(b.src[a.keyLo:a.keyHi]), Val: b.text(a.valLo, a.valHi)}
	}
	b.arena.appendChild(b.top(), el)
	switch {
	case selfClosing || voidTags[tag]:
		// Appended only: no children, no raw-text scan.
	case rawTextTags[tag]:
		lo, hi := b.lx.rawText(tag)
		if lo == hi {
			return
		}
		tn := b.arena.node(TextNode)
		if tag == "title" || tag == "textarea" {
			tn.Data = b.text(lo, hi)
		} else {
			tn.Data = b.src[lo:hi]
		}
		b.arena.appendChild(el, tn)
	default:
		b.stack = append(b.stack, el)
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
