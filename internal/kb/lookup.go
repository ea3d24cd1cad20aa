package kb

import (
	"sort"

	"ceres/internal/strmatch"
)

// LookupEntities returns the IDs of entities whose name or alias matches
// the text: first exact normalized matches, then token-order-insensitive
// matches. Results are sorted and deduplicated. This is the page-text
// entity identification of §3.1.1 step 1. The returned slice may share the
// KB's internal storage and must not be modified.
func (k *KB) LookupEntities(text string) []string {
	n := strmatch.Normalize(text)
	if n == "" {
		return nil
	}
	names := k.nameIndex[n]
	// The token key lives in a stack buffer; the map probe's string
	// conversion does not allocate.
	var tkBuf [96]byte
	toks := k.tokenIndex[string(strmatch.AppendTokenSetKey(tkBuf[:0], n))]
	if len(toks) == 0 {
		// Exact-only hit: the common case. The name list is already unique
		// (appendUnique on insert); a single ID needs no sort or copy, so
		// return the stored slice capped to its length.
		switch len(names) {
		case 0:
			return nil
		case 1:
			return names[:1:1]
		}
		out := make([]string, len(names))
		copy(out, names)
		sort.Strings(out)
		return out
	}
	var out []string
	out = append(out, names...)
	for _, id := range toks {
		out = appendUnique(out, id)
	}
	sort.Strings(out)
	return out
}

// HasLiteral reports whether the normalized text occurs as a literal object
// of any triple.
func (k *KB) HasLiteral(text string) bool {
	n := strmatch.Normalize(text)
	if n == "" {
		return false
	}
	return k.literalIndex[n] > 0
}

// MatchItems returns the item keys (entity IDs as "e:<id>", literals as
// "lit:<norm>") that the text may denote: the members of Algorithm 1's
// pageSet, as the string-keyed reference annotator in internal/core's
// tests builds it. Index.AppendCandidates is its ItemID form, the one
// annotation runs.
func (k *KB) MatchItems(text string) []string {
	var out []string
	for _, id := range k.LookupEntities(text) {
		out = append(out, "e:"+id)
	}
	if k.HasLiteral(text) {
		out = append(out, "lit:"+strmatch.Normalize(text))
	}
	return out
}

// MatchesObject reports whether the text field denotes the given triple
// object: for literals a fuzzy string comparison, for entities a match
// against the entity's name or any alias, either via the index or the
// bounded-edit-distance comparator. It is the reference Index.Matches is
// tested against; annotation runs Index.Matches.
func (k *KB) MatchesObject(text string, o Object) bool {
	if !o.IsEntity() {
		return strmatch.FuzzyEqual(text, o.Literal)
	}
	for _, id := range k.LookupEntities(text) {
		if id == o.EntityID {
			return true
		}
	}
	e, ok := k.Entity(o.EntityID)
	if !ok {
		return false
	}
	if strmatch.FuzzyEqual(text, e.Name) {
		return true
	}
	for _, a := range e.Aliases {
		if strmatch.FuzzyEqual(text, a) {
			return true
		}
	}
	return false
}

// ObjectText returns a display string for an object: the entity name for
// entity objects, the literal otherwise.
func (k *KB) ObjectText(o Object) string {
	if !o.IsEntity() {
		return o.Literal
	}
	if e, ok := k.Entity(o.EntityID); ok {
		return e.Name
	}
	return o.EntityID
}
