// Package dom implements the HTML document model CERES operates over: one
// from-scratch HTML lexer (the repository is stdlib-only, so
// golang.org/x/net/html is unavailable) under two consumers — the tree
// builder training parses pages with and the stream pass serving reads
// them with — absolute-XPath generation for every node, and the text-field
// enumeration that defines the unit of annotation and extraction (paper
// §2.1: "a node in the tree can be uniquely defined by an absolute XPath").
package dom

import "strings"

// NodeType discriminates the kinds of nodes in a parsed document.
type NodeType uint8

const (
	// DocumentNode is the synthetic root of a parsed page.
	DocumentNode NodeType = iota
	// ElementNode is a tag such as <div> with attributes and children.
	ElementNode
	// TextNode holds character data.
	TextNode
	// CommentNode holds the body of an HTML comment.
	CommentNode
)

// Attr is a single HTML attribute. Keys are lowercased by the parser.
type Attr struct {
	Key string
	Val string
}

// Node is a node of the DOM tree. Tag is set (lowercase) for ElementNode;
// Data holds text for TextNode and CommentNode.
type Node struct {
	Type     NodeType
	Tag      string
	Data     string
	Attrs    []Attr
	Parent   *Node
	Children []*Node

	// Structural context precomputed by Finalize so the featurization hot
	// path never re-walks the tree. Parse finalizes every document it
	// returns; AppendChild invalidates the affected caches, and the
	// accessors fall back to dynamic recomputation when a cache is absent.
	elemKids     []*Node // element children, in order (structCached)
	elemIndex    int32   // index among parent's element children
	siblingIndex int32   // 1-based XPath ordinal among same-kind siblings
	structCached bool    // elemKids + children's indices are valid

	// Text context cached lazily on first read (not by Finalize: most
	// elements' joined subtree text is never asked for, and computing it
	// eagerly duplicates the page's text at every tree level). Lazy
	// caching writes on read, so a node — in practice, a parsed page —
	// must be confined to one goroutine at a time.
	textCached    bool   // cachedText is valid
	ownCached     bool   // cachedOwnText is valid
	cachedText    string // collapsed subtree text
	cachedOwnText string // collapsed direct-child text

	// arena backs Release: set only on the DocumentNode Parse returns, so
	// the page's owner can recycle the tree's node slabs when done.
	arena *nodeArena
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(key string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// AttrOr returns the value of the named attribute, or def if absent.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.Attr(key); ok {
		return v
	}
	return def
}

// AppendChild adds c as the last child of n and sets its parent pointer.
// Appending to a finalized tree invalidates the caches the new child makes
// stale: n's child-structure context and the subtree-text caches of n and
// every ancestor.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
	if n.structCached {
		n.structCached = false
		n.elemKids = nil
	}
	if n.ownCached {
		n.ownCached = false
		n.cachedOwnText = ""
	}
	for p := n; p != nil; p = p.Parent {
		p.textCached = false
		p.cachedText = ""
	}
}

// Finalize precomputes the per-node structural context the extraction hot
// path reads: each node's element-children slice, its index among its
// parent's element children, and its 1-based same-kind sibling ordinal
// (the XPath index). Parse finalizes every document it returns; manually
// built trees may call Finalize themselves. Text caches are not
// precomputed — Text and OwnText fill them lazily on first read, since
// eager joins would duplicate the page's text at every tree level.
func (n *Node) Finalize() {
	// Parsed trees route elemKids through the arena's pointer slabs;
	// manually built trees (nil arena) use the heap.
	n.finalize(make(map[string]int32, 8), n.arena)
}

func (n *Node) finalize(ordinals map[string]int32, a *nodeArena) {
	for _, c := range n.Children {
		c.finalize(ordinals, a)
	}
	n.refreshStruct(ordinals, a)
}

// refreshStruct rebuilds n's child-structure caches: the element-children
// slice plus each child's element index and same-kind sibling ordinal.
func (n *Node) refreshStruct(ordinals map[string]int32, a *nodeArena) {
	n.elemKids = nil
	if len(n.Children) > 0 {
		clear(ordinals)
		elems := 0
		for _, c := range n.Children {
			if c.Type == ElementNode {
				elems++
			}
		}
		if elems > 0 {
			if a != nil {
				n.elemKids = a.ptrs(elems)
			} else {
				n.elemKids = make([]*Node, 0, elems)
			}
		}
		for _, c := range n.Children {
			if c.Type == ElementNode {
				c.elemIndex = int32(len(n.elemKids))
				n.elemKids = append(n.elemKids, c)
			}
			k := c.kindKey()
			ordinals[k]++
			c.siblingIndex = ordinals[k]
		}
	}
	n.structCached = true
}

// kindSentinels bucket non-element node types for kindKey without
// allocating. Element tags never start with '\x00', so these cannot
// collide with tag keys.
var kindSentinels = [...]string{"\x00doc", "\x00elem", "\x00text", "\x00comment"}

// kindKey buckets siblings the way sameKind compares them: by type, and
// for elements also by tag.
func (n *Node) kindKey() string {
	if n.Type == ElementNode {
		return n.Tag
	}
	return kindSentinels[n.Type]
}

// joinChildText joins the children's collapsed text with single spaces,
// skipping empties. ownOnly restricts to direct text children (OwnText);
// otherwise element children contribute their subtree text, computed (and
// cached) on demand. The single-part case returns the child's string
// without copying.
func joinChildText(children []*Node, ownOnly bool) string {
	first := ""
	var sb strings.Builder
	parts := 0
	for _, c := range children {
		if ownOnly && c.Type != TextNode {
			continue
		}
		t := c.Text()
		if t == "" {
			continue
		}
		switch parts {
		case 0:
			first = t
		case 1:
			sb.Grow(len(first) + 1 + len(t))
			sb.WriteString(first)
			sb.WriteByte(' ')
			sb.WriteString(t)
		default:
			sb.WriteByte(' ')
			sb.WriteString(t)
		}
		parts++
	}
	if parts <= 1 {
		return first
	}
	return sb.String()
}

// ElementSiblings returns the element children of n's parent (including n
// itself), in document order — the sibling context §4.2's structural
// features read. A parentless node is its own sole sibling. On finalized
// trees this returns the cached slice without walking or allocating.
func (n *Node) ElementSiblings() []*Node {
	p := n.Parent
	if p == nil {
		return []*Node{n}
	}
	if p.structCached {
		return p.elemKids
	}
	out := make([]*Node, 0, len(p.Children))
	for _, c := range p.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// ElementIndex returns n's position within ElementSiblings, or -1 when n
// is not an element child of its parent. A parentless node is at index 0.
func (n *Node) ElementIndex() int {
	p := n.Parent
	if p == nil {
		return 0
	}
	if p.structCached && n.Type == ElementNode {
		return int(n.elemIndex)
	}
	idx := 0
	for _, c := range p.Children {
		if c == n {
			if n.Type == ElementNode {
				return idx
			}
			return -1
		}
		if c.Type == ElementNode {
			idx++
		}
	}
	return -1
}

// Walk visits n and every descendant in document (pre-) order. If fn
// returns false the subtree below the current node is skipped.
func (n *Node) Walk(fn func(*Node) bool) {
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Text returns the concatenation of all text in the subtree, with each text
// node's content whitespace-collapsed and the pieces joined by single
// spaces. The result is computed on first read and cached; a repeat read
// is a plain string load. Caching writes on read, so concurrent Text calls
// on one tree require external synchronization (pages are confined to one
// worker at a time).
func (n *Node) Text() string {
	if n.textCached {
		return n.cachedText
	}
	switch n.Type {
	case TextNode:
		n.cachedText = CollapseSpace(n.Data)
	case CommentNode:
		n.cachedText = ""
	default:
		n.cachedText = joinChildText(n.Children, false)
	}
	n.textCached = true
	return n.cachedText
}

// OwnText returns the whitespace-collapsed concatenation of the direct text
// children of n (not descendants), computed on first read and cached. The
// same single-owner rule as Text applies.
func (n *Node) OwnText() string {
	if n.ownCached {
		return n.cachedOwnText
	}
	if n.Type != TextNode && n.Type != CommentNode {
		n.cachedOwnText = joinChildText(n.Children, true)
	}
	n.ownCached = true
	return n.cachedOwnText
}

// Root returns the topmost ancestor of n (the DocumentNode for parsed
// pages).
func (n *Node) Root() *Node {
	for n.Parent != nil {
		n = n.Parent
	}
	return n
}

// SiblingIndex returns the 1-based position of n among its parent's
// children that share n's type and tag (the XPath index), and 1 if n has no
// parent. On finalized trees this is a cached read.
func (n *Node) SiblingIndex() int {
	if n.Parent == nil {
		return 1
	}
	if n.Parent.structCached {
		return int(n.siblingIndex)
	}
	idx := 0
	for _, s := range n.Parent.Children {
		if sameKind(s, n) {
			idx++
		}
		if s == n {
			return idx
		}
	}
	return 1
}

func sameKind(a, b *Node) bool {
	if a.Type != b.Type {
		return false
	}
	if a.Type == ElementNode {
		return a.Tag == b.Tag
	}
	return true
}

// Contains reports whether m lies in the subtree rooted at n (inclusive).
func (n *Node) Contains(m *Node) bool {
	for ; m != nil; m = m.Parent {
		if m == n {
			return true
		}
	}
	return false
}

// CollapseSpace trims s and collapses internal whitespace runs to single
// spaces. Already-collapsed input (the common case on template-generated
// pages) is returned as-is, or as a substring, without allocating.
func CollapseSpace(s string) string {
	// Fast path: scan for anything that forces a rewrite — a whitespace
	// byte that is not a single interior space.
	start, end := 0, len(s)
	for start < end && isASCIISpace(s[start]) {
		start++
	}
	for end > start && isASCIISpace(s[end-1]) {
		end--
	}
	clean := true
	for i := start; i < end-1; i++ {
		if isASCIISpace(s[i]) && (s[i] != ' ' || isASCIISpace(s[i+1])) {
			clean = false
			break
		}
	}
	if clean {
		// Unicode spaces (NBSP etc.) are multi-byte and invisible to the
		// byte scan; strings.Fields splits on them, so fall through when
		// any non-ASCII bytes could hide one.
		ascii := true
		for i := start; i < end; i++ {
			if s[i] >= 0x80 {
				ascii = false
				break
			}
		}
		if ascii {
			return s[start:end]
		}
	}
	return strings.Join(strings.Fields(s), " ")
}

// isASCIISpace matches the ASCII whitespace strings.Fields splits on
// (unlike the lexer's isSpaceByte, it includes '\v').
func isASCIISpace(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}
