package dom

import (
	"strconv"
	"strings"
)

// XPath returns the absolute XPath of n, e.g.
// /html[1]/body[1]/div[3]/a[2] for elements and
// /html[1]/body[1]/div[3]/text()[1] for text nodes. Every step carries an
// explicit 1-based index among same-tag siblings, matching the paper's
// Figure 2 representation. The DocumentNode has path "/".
func (n *Node) XPath() string {
	if n.Type == DocumentNode {
		return "/"
	}
	var stack [32]*Node
	chain := stack[:0]
	size := 0
	var tmp [12]byte
	for m := n; m != nil && m.Type != DocumentNode; m = m.Parent {
		chain = append(chain, m)
		size += len(stepName(m)) + 3 + len(strconv.AppendInt(tmp[:0], int64(m.SiblingIndex()), 10)) // '/name[N]'
	}
	var b strings.Builder
	b.Grow(size)
	for i := len(chain) - 1; i >= 0; i-- {
		m := chain[i]
		b.WriteByte('/')
		b.WriteString(stepName(m))
		b.WriteByte('[')
		b.Write(strconv.AppendInt(tmp[:0], int64(m.SiblingIndex()), 10))
		b.WriteByte(']')
	}
	return b.String()
}

func stepName(n *Node) string {
	if n.Type == TextNode {
		return "text()"
	}
	if n.Type == CommentNode {
		return "comment()"
	}
	return n.Tag
}
