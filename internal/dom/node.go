// Package dom implements the HTML document model CERES operates over: one
// from-scratch HTML lexer (the repository is stdlib-only, so
// golang.org/x/net/html is unavailable) under two consumers — the stream
// pass every reader of pages uses (training, serving, VERTEX++), and the
// tree builder the page simulator renders from and the tests hold the
// stream pass to — absolute-XPath generation, and the text fields that
// are the unit of annotation and extraction (paper §2.1: "a node in the
// tree can be uniquely defined by an absolute XPath").
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
	Type NodeType

	// XPath ordinals Parse precomputes, so printing a path never re-counts
	// siblings. AppendChild invalidates them, and SiblingIndex falls back
	// to counting when they are absent.
	structCached bool  // children's siblingIndex values are valid
	siblingIndex int32 // 1-based XPath ordinal among same-kind siblings

	Tag    string
	Data   string
	Attrs  []Attr
	Parent *Node
	// Children lists the child nodes in order.
	Children []*Node
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

// AppendChild adds c as the last child of n and sets its parent pointer.
// Appending to a parsed tree invalidates the ordinals of n's children.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.structCached = false
	n.Children = append(n.Children, c)
}

// numberChildren gives each of n's children its 1-based ordinal among
// same-kind siblings and marks them valid.
func (n *Node) numberChildren(ordinals map[string]int32) {
	if len(n.Children) > 0 {
		clear(ordinals)
		for _, c := range n.Children {
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

// SiblingIndex returns the 1-based position of n among its parent's
// children that share n's type and tag (the XPath index), and 1 if n has no
// parent. On a parsed tree this is a cached read.
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
