package kb

import (
	"sort"

	"ceres/internal/strmatch"
)

// lookupMaps are the KB's string-keyed lookups. nameIndex maps normalized
// entity names and aliases to entity IDs; tokenIndex does the same for
// token-set keys, giving order-insensitive fuzzy matching ("Lee, Spike" vs
// "Spike Lee"), per Gulhane et al.'s matcher (§3.1.1). literalIndex maps
// normalized literal object strings to the number of triples carrying
// them, objectCount each object key to the number of triples carrying it,
// feeding the frequent-object filter of §3.1.1. ID lists are unique and
// in sorted entity-ID order.
type lookupMaps struct {
	nameIndex    map[string][]string
	tokenIndex   map[string][]string
	literalIndex map[string]int
	objectCount  map[string]int
}

// maps returns the KB's lookup maps, building them on the first call after
// a mutation.
func (k *KB) maps() *lookupMaps {
	if m := k.lookups.Load(); m != nil {
		return m
	}
	k.idxMu.Lock()
	defer k.idxMu.Unlock()
	if m := k.lookups.Load(); m != nil {
		return m
	}
	m := &lookupMaps{
		nameIndex:    make(map[string][]string),
		tokenIndex:   make(map[string][]string),
		literalIndex: make(map[string]int),
		objectCount:  make(map[string]int),
	}
	for _, id := range k.EntityIDs() {
		for _, name := range appendNames(nil, k.entities[id]) {
			n := strmatch.Normalize(name)
			if n == "" {
				continue
			}
			m.nameIndex[n] = appendUnique(m.nameIndex[n], id)
			if tk := strmatch.TokenSetKeyNormalized(n); tk != n {
				m.tokenIndex[tk] = appendUnique(m.tokenIndex[tk], id)
			}
		}
	}
	for _, t := range k.triples {
		if !t.Object.IsEntity() {
			m.literalIndex[strmatch.Normalize(t.Object.Literal)]++
		}
		m.objectCount[t.Object.Key()]++
	}
	k.lookups.Store(m)
	return m
}

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
	m := k.maps()
	names := m.nameIndex[n]
	// The token key lives in a stack buffer; the map probe's string
	// conversion does not allocate.
	var tkBuf [96]byte
	toks := m.tokenIndex[string(strmatch.AppendTokenSetKey(tkBuf[:0], n))]
	if len(toks) == 0 {
		// Exact-only hit: the common case. The name list is unique and
		// sorted (built in entity-ID order), so return the stored slice
		// capped to its length.
		return names[:len(names):len(names)]
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
	return k.maps().literalIndex[n] > 0
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
