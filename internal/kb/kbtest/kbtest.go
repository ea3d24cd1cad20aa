// Package kbtest holds the string-keyed KB lookups annotation ran before
// kb.Index, built eagerly from a KB's entities and triples: the reference
// the Index's answers and the string-keyed reference annotator are
// checked against. Only tests import it.
package kbtest

import (
	"slices"
	"unicode/utf8"

	"ceres/internal/kb"
	"ceres/internal/strmatch"
)

// Lookups are one KB's string-keyed maps. nameIndex maps normalized
// entity names and aliases to entity IDs; tokenIndex does the same for
// token-set keys that differ from the name, giving order-insensitive
// matching ("Lee, Spike" vs "Spike Lee"), per Gulhane et al.'s matcher
// (§3.1.1). literalIndex counts the triples carrying each normalized
// literal. ID lists are unique and in sorted entity-ID order; bySubject
// and byPred list triples in triple order. Lookups reflect the KB as it
// was when New built them.
type Lookups struct {
	k            *kb.KB
	nameIndex    map[string][]string
	tokenIndex   map[string][]string
	literalIndex map[string]int
	bySubject    map[string][]kb.Triple
	byPred       map[string][]kb.Triple
}

// New builds k's lookups.
func New(k *kb.KB) *Lookups {
	l := &Lookups{
		k:            k,
		nameIndex:    make(map[string][]string),
		tokenIndex:   make(map[string][]string),
		literalIndex: make(map[string]int),
		bySubject:    make(map[string][]kb.Triple),
		byPred:       make(map[string][]kb.Triple),
	}
	for _, id := range k.EntityIDs() {
		e, _ := k.Entity(id)
		for _, name := range append([]string{e.Name}, e.Aliases...) {
			n := strmatch.Normalize(name)
			if n == "" {
				continue
			}
			l.nameIndex[n] = appendUnique(l.nameIndex[n], id)
			if tk := strmatch.TokenSetKeyNormalized(n); tk != n {
				l.tokenIndex[tk] = appendUnique(l.tokenIndex[tk], id)
			}
		}
	}
	for _, t := range k.Triples() {
		if !t.Object.IsEntity() {
			l.literalIndex[strmatch.Normalize(t.Object.Literal)]++
		}
		l.bySubject[t.Subject] = append(l.bySubject[t.Subject], t)
		l.byPred[t.Predicate] = append(l.byPred[t.Predicate], t)
	}
	return l
}

func appendUnique(ids []string, id string) []string {
	if slices.Contains(ids, id) {
		return ids
	}
	return append(ids, id)
}

// LookupEntities returns the IDs of entities whose name or alias matches
// the text: exact normalized matches and token-order-insensitive ones,
// sorted and deduplicated. This is the page-text entity identification of
// §3.1.1 step 1.
func (l *Lookups) LookupEntities(text string) []string {
	n := strmatch.Normalize(text)
	if n == "" {
		return nil
	}
	out := slices.Clone(l.nameIndex[n])
	for _, id := range l.tokenIndex[strmatch.TokenSetKeyNormalized(n)] {
		out = appendUnique(out, id)
	}
	slices.Sort(out)
	return out
}

// HasLiteral reports whether the normalized text occurs as a literal
// object of any triple.
func (l *Lookups) HasLiteral(text string) bool {
	n := strmatch.Normalize(text)
	return n != "" && l.literalIndex[n] > 0
}

// TriplesOf returns the triples whose subject is the given entity, in
// triple order. The slice is shared.
func (l *Lookups) TriplesOf(subject string) []kb.Triple { return l.bySubject[subject] }

// TriplesWithPredicate returns the triples with the given predicate, in
// triple order. The slice is shared.
func (l *Lookups) TriplesWithPredicate(pred string) []kb.Triple { return l.byPred[pred] }

// MatchItems returns the item keys (entity IDs as "e:<id>", literals as
// "lit:<norm>") that the text may denote: the members of Algorithm 1's
// pageSet as the string-keyed annotator built it. Index.AppendCandidates
// is its ItemID form.
func (l *Lookups) MatchItems(text string) []string {
	var out []string
	for _, id := range l.LookupEntities(text) {
		out = append(out, "e:"+id)
	}
	if l.HasLiteral(text) {
		out = append(out, "lit:"+strmatch.Normalize(text))
	}
	return out
}

// MatchesObject reports whether the text field denotes the given triple
// object: for literals a fuzzy string comparison, for entities a match
// against the entity's name or any alias, either via the name lookups or
// the bounded-edit-distance comparator. Index.Matches is its ItemID form.
func (l *Lookups) MatchesObject(text string, o kb.Object) bool {
	if !o.IsEntity() {
		return FuzzyEqual(text, o.Literal)
	}
	if slices.Contains(l.LookupEntities(text), o.EntityID) {
		return true
	}
	e, ok := l.k.Entity(o.EntityID)
	if !ok {
		return false
	}
	if FuzzyEqual(text, e.Name) {
		return true
	}
	for _, a := range e.Aliases {
		if FuzzyEqual(text, a) {
			return true
		}
	}
	return false
}

// ObjectKeys returns the set of object keys (entity or literal) appearing
// in triples with the given subject — the entitySet of Algorithm 1 line 6,
// whose ItemID form is Index.ObjectItems.
func (l *Lookups) ObjectKeys(subject string) map[string]bool {
	out := make(map[string]bool)
	for _, t := range l.TriplesOf(subject) {
		out[t.Object.Key()] = true
	}
	return out
}

// FrequentObjectKeys returns the object keys that appear in at least frac
// of all triples (§3.1.1), the filter annotation applies through
// Index.ObjectCount.
func (l *Lookups) FrequentObjectKeys(frac float64) map[string]bool {
	count := make(map[string]int)
	for _, t := range l.k.Triples() {
		count[t.Object.Key()]++
	}
	out := make(map[string]bool)
	min := frac * float64(l.k.NumTriples())
	for key, c := range count {
		if float64(c) >= min {
			out[key] = true
		}
	}
	return out
}

// FuzzyEqual reports whether two strings should be considered mentions of
// the same name. It is the page-text-to-KB matcher of §3.1.1: exact match
// on normalized forms, token-order-insensitive match ("Lee, Spike" vs
// "Spike Lee"), or a small bounded edit distance that scales with length so
// short strings must match exactly. Index.Matches is its form over
// precomputed keys.
func FuzzyEqual(a, b string) bool {
	na, nb := strmatch.Normalize(a), strmatch.Normalize(b)
	if na == "" || nb == "" {
		return false
	}
	if na == nb {
		return true
	}
	if strmatch.TokenSetKeyNormalized(na) == strmatch.TokenSetKeyNormalized(nb) {
		return true
	}
	max := strmatch.EditBudget(utf8.RuneCountInString(na), utf8.RuneCountInString(nb))
	if max == 0 {
		return false
	}
	_, ok := strmatch.LevenshteinBoundedRunes([]rune(na), []rune(nb), max)
	return ok
}
