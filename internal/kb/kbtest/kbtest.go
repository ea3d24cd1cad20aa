// Package kbtest holds the string-keyed KB lookups annotation ran before
// kb.Index, over the KB's own lookups: the reference the Index's answers
// and the string-keyed reference annotator are checked against. Only
// tests import it.
package kbtest

import (
	"ceres/internal/kb"
	"ceres/internal/strmatch"
)

// MatchItems returns the item keys (entity IDs as "e:<id>", literals as
// "lit:<norm>") that the text may denote: the members of Algorithm 1's
// pageSet as the string-keyed annotator built it. Index.AppendCandidates
// is its ItemID form.
func MatchItems(k *kb.KB, text string) []string {
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
// against the entity's name or any alias, either via the name lookups or
// the bounded-edit-distance comparator. Index.Matches is its ItemID form.
func MatchesObject(k *kb.KB, text string, o kb.Object) bool {
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

// ObjectKeys returns the set of object keys (entity or literal) appearing
// in triples with the given subject — the entitySet of Algorithm 1 line 6,
// whose ItemID form is Index.ObjectItems.
func ObjectKeys(k *kb.KB, subject string) map[string]bool {
	out := make(map[string]bool)
	for _, t := range k.TriplesOf(subject) {
		out[t.Object.Key()] = true
	}
	return out
}

// FrequentObjectKeys returns the object keys that appear in at least frac
// of all triples (§3.1.1), the filter annotation applies through
// Index.ObjectCount.
func FrequentObjectKeys(k *kb.KB, frac float64) map[string]bool {
	count := make(map[string]int)
	for _, t := range k.Triples() {
		count[t.Object.Key()]++
	}
	out := make(map[string]bool)
	min := frac * float64(k.NumTriples())
	for key, c := range count {
		if float64(c) >= min {
			out[key] = true
		}
	}
	return out
}
