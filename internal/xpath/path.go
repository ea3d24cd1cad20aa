// Package xpath holds the absolute XPaths that identify nodes in CERES: a
// path printed to its string form, and Pattern, an XPath with index
// wildcards fitted to the text fields of a stream pass — the form of
// VERTEX++'s extraction rules (§5.2) and of the list-sibling exclusion of
// negative sampling (§4.1, and Figure 2's observation that paths for one
// predicate differ only at a few node indices).
package xpath

import (
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
