package xpath

import "ceres/internal/dom"

// Wildcard marks a pattern step whose index matches any position.
const Wildcard = -1

// Pattern is an absolute XPath in which some step indices are wildcards.
// Patterns generalize sets of concrete paths: a Vertex extraction rule is a
// pattern, and the list-sibling exclusion of §4.1 ("nodes that differ from
// these positives only at these indices") is pattern membership.
type Pattern []Step

// PatternOf converts a concrete path into an exact pattern.
func PatternOf(p Path) Pattern {
	out := make(Pattern, len(p))
	copy(out, p)
	return out
}

// Generalize builds the most specific pattern matching all the given paths:
// tags must agree (otherwise ok=false); any step position where indices
// disagree becomes a wildcard.
func Generalize(paths []Path) (Pattern, bool) {
	if len(paths) == 0 {
		return nil, false
	}
	base := paths[0]
	for _, p := range paths[1:] {
		if !base.SameShape(p) {
			return nil, false
		}
	}
	pat := PatternOf(base)
	for _, p := range paths[1:] {
		for i := range pat {
			if pat[i].Index != Wildcard && pat[i].Index != p[i].Index {
				pat[i].Index = Wildcard
			}
		}
	}
	return pat, true
}

// Matches reports whether the concrete path p is an instance of the
// pattern.
func (pat Pattern) Matches(p Path) bool {
	if len(pat) != len(p) {
		return false
	}
	for i := range pat {
		if pat[i].Tag != p[i].Tag {
			return false
		}
		if pat[i].Index != Wildcard && pat[i].Index != p[i].Index {
			return false
		}
	}
	return true
}

// Wildcards returns the step positions that are wildcards.
func (pat Pattern) Wildcards() []int {
	var out []int
	for i, st := range pat {
		if st.Index == Wildcard {
			out = append(out, i)
		}
	}
	return out
}

// Apply walks the DOM tree and returns every node whose absolute path
// matches the pattern, in document order. Text-node steps use tag "text()".
func (pat Pattern) Apply(doc *dom.Node) []*dom.Node {
	var out []*dom.Node
	var rec func(n *dom.Node, depth int)
	rec = func(n *dom.Node, depth int) {
		if depth == len(pat) {
			out = append(out, n)
			return
		}
		st := pat[depth]
		count := map[string]int{}
		for _, c := range n.Children {
			name := stepName(c)
			if name == "" {
				continue
			}
			count[name]++
			if name != st.Tag {
				continue
			}
			if st.Index == Wildcard || st.Index == count[name] {
				rec(c, depth+1)
			}
		}
	}
	rec(doc, 0)
	return out
}

func stepName(n *dom.Node) string {
	switch n.Type {
	case dom.ElementNode:
		return n.Tag
	case dom.TextNode:
		return "text()"
	default:
		return ""
	}
}

// FromNode returns the parsed Path of a DOM node.
func FromNode(n *dom.Node) Path {
	return MustParse(n.XPath())
}
