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
// them. ID lists are unique and in sorted entity-ID order. bySubject and
// byPred map an entity ID and a predicate to the indices of their
// triples, in triple order.
type lookupMaps struct {
	nameIndex    map[string][]string
	tokenIndex   map[string][]string
	literalIndex map[string]int
	bySubject    map[string][]int
	byPred       map[string][]int
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
		bySubject:    make(map[string][]int),
		byPred:       make(map[string][]int),
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
	for i, t := range k.triples {
		if !t.Object.IsEntity() {
			m.literalIndex[strmatch.Normalize(t.Object.Literal)]++
		}
		m.bySubject[t.Subject] = append(m.bySubject[t.Subject], i)
		m.byPred[t.Predicate] = append(m.byPred[t.Predicate], i)
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
