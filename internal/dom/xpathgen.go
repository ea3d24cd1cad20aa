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
