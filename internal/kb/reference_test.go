package kb

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"ceres/internal/strmatch"
)

// The KB's string-keyed maps as AddEntity and AddTriple used to build them
// on every insert, and the Index as it used to be built from those maps,
// frozen here as the reference for the lazily built maps (lookupMaps) and
// for the Index that newIndex derives straight from entities and triples.

// eagerMaps is the KB's six insert-time maps, built by replaying the
// insert-time indexing over the KB's entities and triples.
type eagerMaps struct {
	nameIndex    map[string][]string
	tokenIndex   map[string][]string
	literalIndex map[string]int
	objectCount  map[string]int
	bySubject    map[string][]int
	byPred       map[string][]int
}

func buildEagerMaps(k *KB) *eagerMaps {
	m := &eagerMaps{
		nameIndex:    make(map[string][]string),
		tokenIndex:   make(map[string][]string),
		literalIndex: make(map[string]int),
		objectCount:  make(map[string]int),
		bySubject:    make(map[string][]int),
		byPred:       make(map[string][]int),
	}
	for _, id := range k.EntityIDs() {
		e := k.entities[id]
		m.indexName(e.Name, e.ID)
		for _, a := range e.Aliases {
			m.indexName(a, e.ID)
		}
	}
	for i, t := range k.triples {
		if !t.Object.IsEntity() {
			m.literalIndex[strmatch.Normalize(t.Object.Literal)]++
		}
		m.objectCount[t.Object.Key()]++
		m.bySubject[t.Subject] = append(m.bySubject[t.Subject], i)
		m.byPred[t.Predicate] = append(m.byPred[t.Predicate], i)
	}
	return m
}

func triplesAt(k *KB, idxs []int) []Triple {
	out := make([]Triple, len(idxs))
	for i, idx := range idxs {
		out[i] = k.triples[idx]
	}
	return out
}

func (m *eagerMaps) objectKeys(k *KB, subject string) map[string]bool {
	out := make(map[string]bool)
	for _, idx := range m.bySubject[subject] {
		out[k.triples[idx].Object.Key()] = true
	}
	return out
}

// checkTripleLookups holds TriplesOf, ObjectKeys and TriplesWithPredicate
// to the eager maps on every entity ID and predicate of the KB, and on a
// subject and a predicate that have no triple.
func checkTripleLookups(t testing.TB, k *KB, ref *eagerMaps, when string) {
	t.Helper()
	for _, id := range append(k.EntityIDs(), "no-such-entity") {
		if got, want := k.TriplesOf(id), triplesAt(k, ref.bySubject[id]); !sameContents(got, want) {
			t.Fatalf("%s: TriplesOf(%q) = %v, reference %v", when, id, got, want)
		}
		if got, want := k.ObjectKeys(id), ref.objectKeys(k, id); !sameContents(got, want) {
			t.Fatalf("%s: ObjectKeys(%q) = %v, reference %v", when, id, got, want)
		}
	}
	for _, pred := range append(sortedKeys(ref.byPred), "no-such-predicate") {
		if got, want := k.TriplesWithPredicate(pred), triplesAt(k, ref.byPred[pred]); !sameContents(got, want) {
			t.Fatalf("%s: TriplesWithPredicate(%q) has %d triples, reference %d", when, pred, len(got), len(want))
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m *eagerMaps) indexName(name, id string) {
	n := strmatch.Normalize(name)
	if n == "" {
		return
	}
	m.nameIndex[n] = appendUnique(m.nameIndex[n], id)
	tk := strmatch.TokenSetKey(name)
	if tk != n {
		m.tokenIndex[tk] = appendUnique(m.tokenIndex[tk], id)
	}
}

func (m *eagerMaps) lookupEntities(text string) []string {
	n := strmatch.Normalize(text)
	if n == "" {
		return nil
	}
	var out []string
	out = append(out, m.nameIndex[n]...)
	for _, id := range m.tokenIndex[strmatch.TokenSetKeyNormalized(n)] {
		out = appendUnique(out, id)
	}
	sort.Strings(out)
	return out
}

func (m *eagerMaps) hasLiteral(text string) bool {
	n := strmatch.Normalize(text)
	return n != "" && m.literalIndex[n] > 0
}

func (m *eagerMaps) matchItems(text string) []string {
	var out []string
	for _, id := range m.lookupEntities(text) {
		out = append(out, "e:"+id)
	}
	if m.hasLiteral(text) {
		out = append(out, "lit:"+strmatch.Normalize(text))
	}
	return out
}

func (m *eagerMaps) frequentObjectKeys(numTriples int, frac float64) map[string]bool {
	out := make(map[string]bool)
	if numTriples == 0 {
		return out
	}
	min := frac * float64(numTriples)
	for key, c := range m.objectCount {
		if float64(c) >= min {
			out[key] = true
		}
	}
	return out
}

// eagerIndex is the Index built from the eager maps.
func eagerIndex(k *KB, m *eagerMaps) *Index {
	ix := &Index{numTriples: len(k.triples)}
	ix.entityIDs = k.EntityIDs()
	ix.numEntities = len(ix.entityIDs)
	ix.entityItem = make(map[string]ItemID, ix.numEntities)
	for i, id := range ix.entityIDs {
		ix.entityItem[id] = ItemID(i)
	}
	ix.litNorms = make([]string, 0, len(m.literalIndex))
	for n := range m.literalIndex {
		ix.litNorms = append(ix.litNorms, n)
	}
	sort.Strings(ix.litNorms)
	ix.litItem = make(map[string]ItemID, len(ix.litNorms))
	for i, n := range ix.litNorms {
		ix.litItem[n] = ItemID(ix.numEntities + i)
	}

	// Triple tables.
	ix.objCount = make([]int32, ix.numEntities+len(ix.litNorms))
	perSubjObjs := make([][]ItemID, ix.numEntities)
	perSubjRels := make([][]SubjectRelation, ix.numEntities)
	for _, t := range k.triples {
		obj, ok := ix.objectItem(t.Object)
		if !ok {
			continue
		}
		ix.objCount[obj]++
		subj, ok := ix.entityItem[t.Subject]
		if !ok {
			continue
		}
		perSubjObjs[subj] = append(perSubjObjs[subj], obj)
		perSubjRels[subj] = append(perSubjRels[subj], SubjectRelation{Pred: t.Predicate, Obj: obj})
	}
	ix.objStart = make([]int32, ix.numEntities+1)
	ix.relStart = make([]int32, ix.numEntities+1)
	for e := 0; e < ix.numEntities; e++ {
		objs := perSubjObjs[e]
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		for i, o := range objs {
			if i > 0 && o == objs[i-1] {
				continue
			}
			ix.objects = append(ix.objects, o)
		}
		ix.objStart[e+1] = int32(len(ix.objects))
		rels := perSubjRels[e]
		var seen map[SubjectRelation]bool
		if len(rels) > 1 {
			seen = make(map[SubjectRelation]bool, len(rels))
		}
		for _, r := range rels {
			if seen[r] {
				continue
			}
			if seen != nil {
				seen[r] = true
			}
			ix.relations = append(ix.relations, r)
		}
		ix.relStart[e+1] = int32(len(ix.relations))
	}

	// Lookup tables.
	toItems := func(ids []string) []ItemID {
		out := make([]ItemID, 0, len(ids))
		for _, id := range ids {
			if it, ok := ix.entityItem[id]; ok {
				out = append(out, it)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	ix.exactEnt = make(map[string][]ItemID, len(m.nameIndex))
	for n, ids := range m.nameIndex {
		ix.exactEnt[n] = toItems(ids)
	}
	ix.tokenEnt = make(map[string][]ItemID, len(m.tokenIndex))
	for tk, ids := range m.tokenIndex {
		ix.tokenEnt[tk] = toItems(ids)
	}

	// Match keys.
	ix.aliasStart = make([]int32, ix.numEntities+1)
	for e, id := range ix.entityIDs {
		ent := k.entities[id]
		for _, name := range appendNames(nil, ent) {
			norm := strmatch.Normalize(name)
			if norm == "" {
				continue
			}
			dup := false
			for _, prev := range ix.aliasKeys[ix.aliasStart[e]:] {
				if prev.norm == norm {
					dup = true
					break
				}
			}
			if !dup {
				ix.aliasKeys = append(ix.aliasKeys, makeMatchKey(norm, strmatch.TokenSetKeyNormalized(norm)))
			}
		}
		ix.aliasStart[e+1] = int32(len(ix.aliasKeys))
	}
	ix.litKeys = make([]matchKey, len(ix.litNorms))
	for i, norm := range ix.litNorms {
		ix.litKeys[i] = makeMatchKey(norm, strmatch.TokenSetKeyNormalized(norm))
	}
	return ix
}

// sameContents is reflect.DeepEqual for slices and maps, except that a nil
// and an empty one are the same.
func sameContents(a, b any) bool {
	if reflect.ValueOf(a).Len() == 0 && reflect.ValueOf(b).Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// diffIndex names the first table in which got differs from want, or
// returns "" when every table is equal.
func diffIndex(got, want *Index) string {
	tables := []struct {
		name      string
		got, want any
	}{
		{"numEntities", []int{got.numEntities}, []int{want.numEntities}},
		{"numTriples", []int{got.numTriples}, []int{want.numTriples}},
		{"entityIDs", got.entityIDs, want.entityIDs},
		{"litNorms", got.litNorms, want.litNorms},
		{"entityItem", got.entityItem, want.entityItem},
		{"litItem", got.litItem, want.litItem},
		{"objCount", got.objCount, want.objCount},
		{"objects", got.objects, want.objects},
		{"objStart", got.objStart, want.objStart},
		{"relations", got.relations, want.relations},
		{"relStart", got.relStart, want.relStart},
		{"exactEnt", got.exactEnt, want.exactEnt},
		{"tokenEnt", got.tokenEnt, want.tokenEnt},
		{"aliasStart", got.aliasStart, want.aliasStart},
		{"aliasKeys", got.aliasKeys, want.aliasKeys},
		{"litKeys", got.litKeys, want.litKeys},
	}
	if n := reflect.TypeOf(Index{}).NumField(); n != len(tables) {
		return "Index has a field diffIndex does not compare"
	}
	for _, tb := range tables {
		if !sameContents(tb.got, tb.want) {
			return tb.name
		}
	}
	return ""
}

// lookupTexts is what CheckAgainstReference asks the lookups: every name,
// alias and literal of the KB as written, reordered, upper-cased and with
// a letter dropped, plus texts that match nothing.
func lookupTexts(k *KB) []string {
	texts := []string{"", "   ", "!!", "Nobody Here At All"}
	add := func(s string) {
		fields := strings.Fields(s)
		for i, j := 0, len(fields)-1; i < j; i, j = i+1, j-1 {
			fields[i], fields[j] = fields[j], fields[i]
		}
		texts = append(texts, s, strings.Join(fields, ", "), strings.ToUpper(s))
		if len(s) > 1 {
			texts = append(texts, s[1:])
		}
	}
	for _, id := range k.EntityIDs() {
		for _, name := range appendNames(nil, k.entities[id]) {
			add(name)
		}
	}
	for _, t := range k.triples {
		if !t.Object.IsEntity() {
			add(t.Object.Literal)
		}
	}
	return texts
}

// CheckAgainstReference holds a KB that no lookup has read yet to the
// frozen eager reference: BuildIndex builds none of the lookup maps and
// an Index whose every table equals the one the eager maps built, and
// LookupEntities, HasLiteral, MatchItems, FrequentObjectKeys, TriplesOf,
// ObjectKeys and TriplesWithPredicate answer as the eager maps did both on
// the call that builds the maps and on every call after it. It is exported for the package's external tests, which
// bring the websim KBs.
func CheckAgainstReference(t testing.TB, k *KB) {
	t.Helper()
	if k.lookups.Load() != nil {
		t.Fatal("the KB's lookup maps were built before the check")
	}
	ref := buildEagerMaps(k)
	if d := diffIndex(k.BuildIndex(), eagerIndex(k, ref)); d != "" {
		t.Fatalf("Index table %s differs from the eager reference's", d)
	}
	if k.lookups.Load() != nil {
		t.Fatal("BuildIndex built the lookup maps")
	}
	texts := lookupTexts(k)
	for pass, when := range []string{"building the maps", "after the maps were built"} {
		for _, text := range texts {
			if got, want := k.LookupEntities(text), ref.lookupEntities(text); !sameContents(got, want) {
				t.Fatalf("%s: LookupEntities(%q) = %v, reference %v", when, text, got, want)
			}
			if got, want := k.HasLiteral(text), ref.hasLiteral(text); got != want {
				t.Fatalf("%s: HasLiteral(%q) = %v, reference %v", when, text, got, want)
			}
			if got, want := k.MatchItems(text), ref.matchItems(text); !sameContents(got, want) {
				t.Fatalf("%s: MatchItems(%q) = %v, reference %v", when, text, got, want)
			}
		}
		for _, frac := range []float64{0, 0.0001, 0.01, 0.5} {
			if got, want := k.FrequentObjectKeys(frac), ref.frequentObjectKeys(len(k.triples), frac); !sameContents(got, want) {
				t.Fatalf("%s: FrequentObjectKeys(%v) has %d keys, reference %d", when, frac, len(got), len(want))
			}
		}
		if pass == 0 {
			// The triple lookups get a first build of their own.
			k.lookups.Store(nil)
		}
		checkTripleLookups(t, k, ref, when)
		if pass == 0 {
			m := k.lookups.Load()
			if m == nil {
				t.Fatal("the lookups left no maps built")
			}
			if !reflect.DeepEqual(m.nameIndex, ref.nameIndex) || !sameContents(m.tokenIndex, ref.tokenIndex) ||
				!sameContents(m.literalIndex, ref.literalIndex) || !reflect.DeepEqual(m.objectCount, ref.objectCount) ||
				!reflect.DeepEqual(m.bySubject, ref.bySubject) || !reflect.DeepEqual(m.byPred, ref.byPred) {
				t.Fatal("the lazily built maps differ from the eager reference's")
			}
		}
	}
}
