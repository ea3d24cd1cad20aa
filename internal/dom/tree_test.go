package dom

import (
	"strconv"
	"strings"
)

// The pointer tree's readers, the stream pass's oracle: the stream
// records are held to what these read off a Parse tree (stream_test.go,
// FuzzStreamMatchesDOM). Training, serving and VERTEX++ read pages through
// the stream pass, so nothing outside the tests reads a tree this way.

// AttrOr returns the value of the named attribute, or def if absent.
func (n *Node) AttrOr(key, def string) string {
	if v, ok := n.Attr(key); ok {
		return v
	}
	return def
}

// joinChildText joins the children's collapsed text with single spaces,
// skipping empties. ownOnly restricts to direct text children (OwnText);
// otherwise element children contribute their subtree text.
func joinChildText(children []*Node, ownOnly bool) string {
	var parts []string
	for _, c := range children {
		if ownOnly && c.Type != TextNode {
			continue
		}
		if t := c.Text(); t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " ")
}

// ElementSiblings returns the element children of n's parent (including n
// itself), in document order. A parentless node is its own sole sibling.
func (n *Node) ElementSiblings() []*Node {
	p := n.Parent
	if p == nil {
		return []*Node{n}
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
// spaces.
func (n *Node) Text() string {
	switch n.Type {
	case TextNode:
		return CollapseSpace(n.Data)
	case CommentNode:
		return ""
	default:
		return joinChildText(n.Children, false)
	}
}

// OwnText returns the whitespace-collapsed concatenation of the direct text
// children of n (not descendants).
func (n *Node) OwnText() string {
	if n.Type == TextNode || n.Type == CommentNode {
		return ""
	}
	return joinChildText(n.Children, true)
}

// TextFields returns every text node in the document whose collapsed
// content is non-empty, in document order, excluding script/style/textarea
// content and comments: the tree's form of the stream pass's fields.
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

// ResolveXPath walks an absolute XPath (as produced by Node.XPath) from doc
// and returns the node it addresses, or nil if no such node exists.
func ResolveXPath(doc *Node, path string) *Node {
	if path == "" || path[0] != '/' {
		return nil
	}
	if path == "/" {
		return doc
	}
	cur := doc
	for _, raw := range strings.Split(path[1:], "/") {
		name, idx, ok := splitStep(raw)
		if !ok {
			return nil
		}
		cur = childByStep(cur, name, idx)
		if cur == nil {
			return nil
		}
	}
	return cur
}

func splitStep(s string) (name string, idx int, ok bool) {
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return "", 0, false
	}
	name = s[:open]
	n, err := strconv.Atoi(s[open+1 : len(s)-1])
	if err != nil || n < 1 {
		return "", 0, false
	}
	return name, n, true
}

func childByStep(parent *Node, name string, idx int) *Node {
	count := 0
	for _, c := range parent.Children {
		switch name {
		case "text()":
			if c.Type != TextNode {
				continue
			}
		case "comment()":
			if c.Type != CommentNode {
				continue
			}
		default:
			if c.Type != ElementNode || c.Tag != name {
				continue
			}
		}
		count++
		if count == idx {
			return c
		}
	}
	return nil
}
