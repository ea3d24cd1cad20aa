// Package xpath holds the absolute XPaths that identify nodes in CERES: a
// path parsed from and printed to its string form, and Pattern, an XPath
// with index wildcards fitted to the text fields of a stream pass — the
// form of VERTEX++'s extraction rules (§5.2) and of the list-sibling
// exclusion of negative sampling (§4.1, and Figure 2's observation that
// paths for one predicate differ only at a few node indices).
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

// Parse converts an absolute XPath string (as dom.Node.XPath and
// dom.StreamPage.AppendFieldXPath print it) into a Path. Every step must
// carry an explicit index.
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
