package xpath

import (
	"slices"

	"ceres/internal/dom"
)

// Wildcard marks a pattern step whose index matches any position.
const Wildcard = -1

// textStep is the name of a text node's step.
const textStep = "text()"

// Pattern is an absolute XPath in which some step indices are wildcards,
// matched against the text fields of a stream pass. A VERTEX++ extraction
// rule is a pattern (§5.2), and so is the list-sibling exclusion of §4.1
// ("nodes that differ from these positives only at these indices"): a set
// of fields generalizes into the most specific pattern they all fit, and
// a field is excluded or extracted when it fits. Steps name tags, not a
// scratch's name IDs, so a pattern built on one page fits the fields of
// pages streamed on any scratch.
type Pattern []Step

// AppendField appends the exact pattern of field fi's XPath to dst.
func AppendField(dst Pattern, sp *dom.StreamPage, fi int) Pattern {
	dst = AppendElem(dst, sp, sp.FieldParent(fi))
	return append(dst, Step{Tag: textStep, Index: int(sp.FieldOrdinal(fi))})
}

// AppendElem appends the exact pattern of element record e's XPath to dst:
// no step for the document, record 0. It grows dst by one more step than
// it appends, for a text() step under e.
func AppendElem(dst Pattern, sp *dom.StreamPage, e int32) Pattern {
	depth := 0
	for r := e; r != 0; r = sp.Parent(r) {
		depth++
	}
	dst = slices.Grow(dst, depth+1)
	dst = dst[:len(dst)+depth]
	for i := len(dst) - 1; e != 0; i-- {
		dst[i] = Step{Tag: sp.Tag(e), Index: int(sp.Ordinal(e))}
		e = sp.Parent(e)
	}
	return dst
}

// Fits reports whether field fi's XPath is an instance of the pattern.
func (pat Pattern) Fits(sp *dom.StreamPage, fi int) bool {
	return pat.fit(sp, textStep, sp.FieldOrdinal(fi), sp.FieldParent(fi), false)
}

// FitsElem reports whether element record e's XPath is an instance of the
// pattern. The document, record 0, fits only the empty pattern.
func (pat Pattern) FitsElem(sp *dom.StreamPage, e int32) bool {
	if e == 0 {
		return len(pat) == 0
	}
	return pat.fit(sp, sp.Tag(e), sp.Ordinal(e), sp.Parent(e), false)
}

// Widen generalizes the pattern so that field fi fits it: each step whose
// index differs from the field's becomes a wildcard. It reports false when
// the field's XPath has another shape — other step names or another
// length — and the pattern may then be widened part way.
func (pat Pattern) Widen(sp *dom.StreamPage, fi int) bool {
	return pat.fit(sp, textStep, sp.FieldOrdinal(fi), sp.FieldParent(fi), true)
}

// fit matches the pattern against an XPath read leaf first off the
// records: the leaf step's name and index, then the chain of element
// records from up to the document. With widen, a differing index becomes
// a wildcard instead of failing.
func (pat Pattern) fit(sp *dom.StreamPage, name string, index, up int32, widen bool) bool {
	for i := len(pat) - 1; i >= 0; i-- {
		st := &pat[i]
		if st.Tag != name {
			return false
		}
		if st.Index != Wildcard && st.Index != int(index) {
			if !widen {
				return false
			}
			st.Index = Wildcard
		}
		if up == 0 {
			return i == 0
		}
		name, index, up = sp.Tag(up), sp.Ordinal(up), sp.Parent(up)
	}
	return false
}
