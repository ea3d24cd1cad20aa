package core

import (
	"strings"

	"ceres/internal/dom"
	"ceres/internal/xpath"
)

// Readers of a dom.Parse tree, for the references in this package's tests
// that run on one (legacyFeatures, treeBestLocalMentions, the list
// exclusion's path patterns): the tree's text and sibling context as the
// tree accessors computed it before pages were read through the stream
// pass.

// treeText is the whitespace-collapsed text of n's subtree, the pieces
// joined by single spaces.
func treeText(n *dom.Node) string {
	switch n.Type {
	case dom.TextNode:
		return dom.CollapseSpace(n.Data)
	case dom.CommentNode:
		return ""
	}
	return joinTreeText(n.Children, false)
}

// treeOwnText is the same over n's direct text children.
func treeOwnText(n *dom.Node) string {
	if n.Type == dom.TextNode || n.Type == dom.CommentNode {
		return ""
	}
	return joinTreeText(n.Children, true)
}

func joinTreeText(children []*dom.Node, ownOnly bool) string {
	var parts []string
	for _, c := range children {
		if ownOnly && c.Type != dom.TextNode {
			continue
		}
		if t := treeText(c); t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " ")
}

// treeSiblings returns the element children of n's parent, n included,
// in document order, and n's position among them.
func treeSiblings(n *dom.Node) ([]*dom.Node, int) {
	if n.Parent == nil {
		return []*dom.Node{n}, 0
	}
	var sibs []*dom.Node
	pos := -1
	for _, c := range n.Parent.Children {
		if c == n {
			pos = len(sibs)
		}
		if c.Type == dom.ElementNode {
			sibs = append(sibs, c)
		}
	}
	return sibs, pos
}

// treeFields lists the tree's text fields in document order: text nodes
// with non-empty collapsed text outside script, style and textarea.
func treeFields(doc *dom.Node) []*dom.Node {
	var out []*dom.Node
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		if n.Type == dom.ElementNode && (n.Tag == "script" || n.Tag == "style" || n.Tag == "textarea") {
			return
		}
		if n.Type == dom.TextNode && treeText(n) != "" {
			out = append(out, n)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(doc)
	return out
}

// treeGeneralize is the most specific pattern the given paths match: ok is
// false when their step names differ, and a step where their indices
// differ is a wildcard.
func treeGeneralize(paths []xpath.Path) (pat xpath.Pattern, ok bool) {
	pat = append(pat, paths[0]...)
	for _, p := range paths[1:] {
		if len(p) != len(pat) {
			return nil, false
		}
		for i := range pat {
			if pat[i].Tag != p[i].Tag {
				return nil, false
			}
			if pat[i].Index != p[i].Index {
				pat[i].Index = xpath.Wildcard
			}
		}
	}
	return pat, true
}

// treeMatches reports whether the path is an instance of the pattern.
func treeMatches(pat xpath.Pattern, p xpath.Path) bool {
	if len(pat) != len(p) {
		return false
	}
	for i := range pat {
		if pat[i].Tag != p[i].Tag || pat[i].Index != xpath.Wildcard && pat[i].Index != p[i].Index {
			return false
		}
	}
	return true
}
