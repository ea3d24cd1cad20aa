// Package xpath manipulates the absolute XPaths that identify DOM nodes in
// CERES: parsing and printing, the Levenshtein distances used by the global
// relation-mention clustering (paper §3.2.2), and index-wildcard patterns —
// the representation of Vertex-style extraction rules (§5.2), and the
// reference for the list-sibling exclusion used during negative sampling
// (§4.1, and Figure 2's observation that paths for one predicate differ
// only at a few node indices), which core matches on node chains.
package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Step is one /tag[index] component of an absolute XPath. Tag is "text()"
// for text nodes.
type Step struct {
	Tag   string
	Index int
}

// Path is a parsed absolute XPath.
type Path []Step

// Parse converts an absolute XPath string (as produced by dom.Node.XPath)
// into a Path. Every step must carry an explicit index.
func Parse(s string) (Path, error) {
	if s == "" || s[0] != '/' {
		return nil, fmt.Errorf("xpath: %q is not absolute", s)
	}
	if s == "/" {
		return Path{}, nil
	}
	parts := strings.Split(s[1:], "/")
	p := make(Path, 0, len(parts))
	for _, part := range parts {
		open := strings.IndexByte(part, '[')
		if open <= 0 || !strings.HasSuffix(part, "]") {
			return nil, fmt.Errorf("xpath: malformed step %q in %q", part, s)
		}
		idx, err := strconv.Atoi(part[open+1 : len(part)-1])
		if err != nil || idx < 1 {
			return nil, fmt.Errorf("xpath: bad index in step %q of %q", part, s)
		}
		p = append(p, Step{Tag: part[:open], Index: idx})
	}
	return p, nil
}

// MustParse is Parse for known-good inputs; it panics on error. Use only
// with paths generated by dom.Node.XPath.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the path back to its canonical absolute form.
func (p Path) String() string {
	if len(p) == 0 {
		return "/"
	}
	var b strings.Builder
	for _, st := range p {
		b.WriteByte('/')
		b.WriteString(st.Tag)
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(st.Index))
		b.WriteByte(']')
	}
	return b.String()
}

// SameShape reports whether two paths have identical tag sequences,
// ignoring indices — the precondition for the paths to belong to the same
// value list (Figure 2).
func (p Path) SameShape(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i].Tag != q[i].Tag {
			return false
		}
	}
	return true
}
