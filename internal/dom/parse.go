package dom

import "sync"

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

// attrs copies src — a tokenizer scratch buffer, valid only until the
// next token — into stable storage carved from the arena's attribute
// slabs. Oversized attribute lists fall back to the heap.
func (a *nodeArena) attrs(src []Attr) []Attr {
	n := len(src)
	if n == 0 {
		return nil
	}
	if n > attrSlabSize {
		out := make([]Attr, n)
		copy(out, src)
		return out
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
	copy(s, src)
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

// Parse builds a DOM tree from HTML source. It never fails: malformed
// markup degrades to a best-effort tree, mirroring browser behaviour, which
// is what a web-extraction system must tolerate. The returned node is a
// DocumentNode.
func Parse(src string) *Node {
	arena := new(nodeArena)
	doc := arena.node(DocumentNode)
	doc.arena = arena
	z := &tokenizer{src: src}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	for {
		t, ok := z.next()
		if !ok {
			break
		}
		switch t.typ {
		case tokText:
			if t.data == "" {
				continue
			}
			// Merge adjacent text (a lone '<' tokenizes separately):
			// browsers normalize the same way, and it keeps
			// Parse∘Render∘Parse an identity on text nodes.
			parent := top()
			if n := len(parent.Children); n > 0 && parent.Children[n-1].Type == TextNode {
				parent.Children[n-1].Data += t.data
				continue
			}
			tn := arena.node(TextNode)
			tn.Data = t.data
			arena.appendChild(parent, tn)
		case tokComment:
			cn := arena.node(CommentNode)
			cn.Data = t.data
			arena.appendChild(top(), cn)
		case tokDoctype:
			// Dropped: the tree starts at <html>.
		case tokSelfClosing:
			el := arena.node(ElementNode)
			el.Tag, el.Attrs = t.tag, arena.attrs(t.attrs)
			arena.appendChild(top(), el)
		case tokStartTag:
			if closers, ok := autoClose[t.tag]; ok {
				for len(stack) > 1 && closers[top().Tag] {
					stack = stack[:len(stack)-1]
				}
			}
			if blockTags[t.tag] {
				if len(stack) > 1 && top().Tag == "p" {
					stack = stack[:len(stack)-1]
				}
			}
			el := arena.node(ElementNode)
			el.Tag, el.Attrs = t.tag, arena.attrs(t.attrs)
			arena.appendChild(top(), el)
			if voidTags[t.tag] {
				continue
			}
			if rawTextTags[t.tag] {
				raw := z.readRawText(t.tag)
				if raw != "" {
					data := raw
					if t.tag == "title" || t.tag == "textarea" {
						data = DecodeEntities(raw)
					}
					tn := arena.node(TextNode)
					tn.Data = data
					arena.appendChild(el, tn)
				}
				continue
			}
			stack = append(stack, el)
		case tokEndTag:
			// Pop to the matching open element if one exists; otherwise
			// ignore the stray end tag.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == t.tag {
					stack = stack[:i]
					break
				}
			}
		}
	}
	// Precompute the structural context featurization reads per node, so
	// it never re-walks the tree (see Node.Finalize).
	doc.Finalize()
	return doc
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
