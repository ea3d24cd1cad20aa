package kb

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode/utf8"

	"ceres/internal/heaptest"
	"ceres/internal/strmatch"
)

// The Index as it was before its strings moved into one arena and its
// name maps into one open-addressed table (refIndex) is frozen here: the
// reference the compact Index must answer as, method for method. The
// string-keyed lookups annotation ran before the Index are another, in
// kbtest.

// refIndex is the Index as it was built before it became self-contained:
// string slices and string-keyed maps, one slice per name, and rune
// decompositions precomputed per key.
type refIndex struct {
	numEntities int
	numTriples  int
	entityIDs   []string
	litNorms    []string
	entityItem  map[string]ItemID
	litItem     map[string]ItemID
	objCount    []int32
	objects     []ItemID
	objStart    []int32
	relations   []refRelation
	relStart    []int32
	exactEnt    map[string][]ItemID
	tokenEnt    map[string][]ItemID
	aliasStart  []int32
	aliasKeys   []refMatchKey
	litKeys     []refMatchKey
}

// refRelation is a relation with its predicate named.
type refRelation struct {
	pred string
	obj  ItemID
}

type refMatchKey struct {
	norm    string
	tokKey  string
	runeLen int32
	runes   []rune
}

func makeRefMatchKey(norm, tokKey string) refMatchKey {
	k := refMatchKey{norm: norm, tokKey: tokKey, runeLen: int32(utf8.RuneCountInString(norm))}
	if k.runeLen >= 8 {
		k.runes = []rune(norm)
	}
	return k
}

func newRefIndex(k *KB) *refIndex {
	ix := &refIndex{numTriples: len(k.triples)}
	ix.entityIDs = k.EntityIDs()
	ix.numEntities = len(ix.entityIDs)
	ix.entityItem = make(map[string]ItemID, ix.numEntities)
	for i, id := range ix.entityIDs {
		ix.entityItem[id] = ItemID(i)
	}
	litNorm := make([]string, len(k.triples))
	ix.litItem = make(map[string]ItemID)
	for i, t := range k.triples {
		if t.Object.IsEntity() {
			continue
		}
		n := strmatch.Normalize(t.Object.Literal)
		litNorm[i] = n
		if _, ok := ix.litItem[n]; !ok {
			ix.litItem[n] = 0
			ix.litNorms = append(ix.litNorms, n)
		}
	}
	sort.Strings(ix.litNorms)
	for i, n := range ix.litNorms {
		ix.litItem[n] = ItemID(ix.numEntities + i)
	}

	ix.objCount = make([]int32, ix.numEntities+len(ix.litNorms))
	perSubjObjs := make([][]ItemID, ix.numEntities)
	perSubjRels := make([][]refRelation, ix.numEntities)
	for i, t := range k.triples {
		var obj ItemID
		if t.Object.IsEntity() {
			obj = ix.entityItem[t.Object.EntityID]
		} else {
			obj = ix.litItem[litNorm[i]]
		}
		ix.objCount[obj]++
		subj := ix.entityItem[t.Subject]
		perSubjObjs[subj] = append(perSubjObjs[subj], obj)
		perSubjRels[subj] = append(perSubjRels[subj], refRelation{pred: t.Predicate, obj: obj})
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
		seen := map[refRelation]bool{}
		for _, r := range perSubjRels[e] {
			if !seen[r] {
				seen[r] = true
				ix.relations = append(ix.relations, r)
			}
		}
		ix.relStart[e+1] = int32(len(ix.relations))
	}

	ix.exactEnt = make(map[string][]ItemID)
	ix.tokenEnt = make(map[string][]ItemID)
	add := func(m map[string][]ItemID, key string, it ItemID) {
		if l := m[key]; len(l) == 0 || l[len(l)-1] != it {
			m[key] = append(l, it)
		}
	}
	ix.aliasStart = make([]int32, ix.numEntities+1)
	for e, id := range ix.entityIDs {
		for _, name := range appendNames(nil, k.entities[id]) {
			norm := strmatch.Normalize(name)
			if norm == "" {
				continue
			}
			tk := strmatch.TokenSetKeyNormalized(norm)
			add(ix.exactEnt, norm, ItemID(e))
			if tk != norm {
				add(ix.tokenEnt, tk, ItemID(e))
			}
			dup := false
			for _, prev := range ix.aliasKeys[ix.aliasStart[e]:] {
				if prev.norm == norm {
					dup = true
					break
				}
			}
			if !dup {
				ix.aliasKeys = append(ix.aliasKeys, makeRefMatchKey(norm, tk))
			}
		}
		ix.aliasStart[e+1] = int32(len(ix.aliasKeys))
	}
	ix.litKeys = make([]refMatchKey, len(ix.litNorms))
	for i, norm := range ix.litNorms {
		ix.litKeys[i] = makeRefMatchKey(norm, strmatch.TokenSetKeyNormalized(norm))
	}
	return ix
}

func (ix *refIndex) numItems() int { return ix.numEntities + len(ix.litNorms) }

func (ix *refIndex) isEntity(it ItemID) bool { return int(it) < ix.numEntities }

func (ix *refIndex) entityID(it ItemID) string {
	if !ix.isEntity(it) {
		return ""
	}
	return ix.entityIDs[it]
}

func (ix *refIndex) objectItems(subject ItemID) []ItemID {
	if !ix.isEntity(subject) {
		return nil
	}
	return ix.objects[ix.objStart[subject]:ix.objStart[subject+1]]
}

func (ix *refIndex) relationsOf(subject ItemID) []refRelation {
	if !ix.isEntity(subject) {
		return nil
	}
	return ix.relations[ix.relStart[subject]:ix.relStart[subject+1]]
}

func (ix *refIndex) appendCandidates(dst []ItemID, key FieldKey) []ItemID {
	if key.Norm == "" {
		return dst
	}
	var items []ItemID
	items = append(items, ix.exactEnt[key.Norm]...)
	items = append(items, ix.tokenEnt[key.TokenKey]...)
	slices.Sort(items)
	dst = append(dst, slices.Compact(items)...)
	if it, ok := ix.litItem[key.Norm]; ok {
		dst = append(dst, it)
	}
	return dst
}

func (ix *refIndex) matches(key FieldKey, it ItemID) bool {
	if key.Norm == "" {
		return false
	}
	if !ix.isEntity(it) {
		return refKeyMatch(key, &ix.litKeys[int(it)-ix.numEntities])
	}
	for a := ix.aliasStart[it]; a < ix.aliasStart[it+1]; a++ {
		if refKeyMatch(key, &ix.aliasKeys[a]) {
			return true
		}
	}
	return false
}

func refKeyMatch(f FieldKey, m *refMatchKey) bool {
	if f.Norm == m.norm || f.TokenKey == m.tokKey {
		return true
	}
	budget := strmatch.EditBudget(f.RuneLen, int(m.runeLen))
	if budget == 0 {
		return false
	}
	_, ok := strmatch.LevenshteinBoundedRunes(f.Runes, m.runes, budget)
	return ok
}

// sameContents is reflect.DeepEqual for slices and maps, except that a nil
// and an empty one are the same.
func sameContents(a, b any) bool {
	if reflect.ValueOf(a).Len() == 0 && reflect.ValueOf(b).Len() == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// lookupText is a text CheckAgainstReference asks the Index, with the
// item whose name or literal it was made from (-1 for none).
type lookupText struct {
	text   string
	origin ItemID
}

// lookupTexts is what CheckAgainstReference asks the Index: every name,
// alias and literal of the KB as written, reordered, upper-cased and with
// a letter dropped, plus texts that match nothing.
func lookupTexts(k *KB, ref *refIndex) []lookupText {
	var texts []lookupText
	seen := map[string]bool{}
	add := func(s string, origin ItemID) {
		fields := strings.Fields(s)
		slices.Reverse(fields)
		for _, v := range []string{s, strings.Join(fields, ", "), strings.ToUpper(s), s[min(1, len(s)):]} {
			if !seen[v] {
				seen[v] = true
				texts = append(texts, lookupText{v, origin})
			}
		}
	}
	for _, s := range []string{"", "   ", "!!", "Nobody Here At All"} {
		add(s, -1)
	}
	for e, id := range ref.entityIDs {
		for _, name := range appendNames(nil, k.entities[id]) {
			add(name, ItemID(e))
		}
	}
	for _, t := range k.triples {
		if !t.Object.IsEntity() {
			add(t.Object.Literal, ref.litItem[strmatch.Normalize(t.Object.Literal)])
		}
	}
	return texts
}

// checkIndex holds the Index to the reference one through every method
// annotation calls: on every item, IsEntity, EntityID, EntityItem,
// ObjectCount, ObjectItems and Relations; on every lookup text,
// AppendCandidates and Matches, for the text's own item, its candidates
// and a stride of all items that, over all texts, reaches every item.
func checkIndex(t testing.TB, k *KB, ix *Index, ref *refIndex) {
	t.Helper()
	n := ref.numItems()
	if got := ix.numEntities + len(ix.litKeys); got != n || ix.NumTriples() != ref.numTriples {
		t.Fatalf("Index has %d items and %d triples, reference %d and %d", got, ix.NumTriples(), n, ref.numTriples)
	}
	for i := range n {
		it := ItemID(i)
		if ix.IsEntity(it) != ref.isEntity(it) || ix.EntityID(it) != ref.entityID(it) {
			t.Fatalf("item %d: IsEntity %v EntityID %q, reference %v %q", it, ix.IsEntity(it), ix.EntityID(it), ref.isEntity(it), ref.entityID(it))
		}
		if ix.ObjectCount(it) != int(ref.objCount[it]) {
			t.Fatalf("ObjectCount(%d) = %d, reference %d", it, ix.ObjectCount(it), ref.objCount[it])
		}
		if got, want := ix.ObjectItems(it), ref.objectItems(it); !sameContents(got, want) {
			t.Fatalf("ObjectItems(%d) = %v, reference %v", it, got, want)
		}
		var rels []refRelation
		for _, r := range ix.Relations(it) {
			rels = append(rels, refRelation{ix.Predicate(r.Pred), r.Obj})
		}
		if want := ref.relationsOf(it); !sameContents(rels, want) {
			t.Fatalf("Relations(%d) = %v, reference %v", it, rels, want)
		}
		if ix.IsEntity(it) {
			if got, ok := ix.EntityItem(ix.EntityID(it)); !ok || got != it {
				t.Fatalf("EntityItem(%q) = %d, %v; want %d", ix.EntityID(it), got, ok, it)
			}
		}
	}
	for _, id := range []string{"", "no-such-entity", "\xff"} {
		if _, ok := ref.entityItem[id]; !ok {
			if got, ok := ix.EntityItem(id); ok {
				t.Fatalf("EntityItem(%q) = %d, reference none", id, got)
			}
		}
	}
	texts := lookupTexts(k, ref)
	stride := max(1, n*len(texts)/200_000)
	var got, want []ItemID
	for ti, lt := range texts {
		key := newFieldKey(lt.text)
		got, want = ix.AppendCandidates(got[:0], key), ref.appendCandidates(want[:0], key)
		if !sameContents(got, want) {
			t.Fatalf("AppendCandidates(%q) = %v, reference %v", lt.text, got, want)
		}
		match := func(it ItemID) {
			if g, w := ix.Matches(key, it), ref.matches(key, it); g != w {
				t.Fatalf("Matches(%q, %s) = %v, reference %v", lt.text, ix.Key(it), g, w)
			}
		}
		if lt.origin >= 0 {
			match(lt.origin)
		}
		for _, it := range want {
			match(it)
		}
		for i := ti % stride; i < n; i += stride {
			match(ItemID(i))
		}
	}
}

// checkPins requires that no string of the Index shares a byte with text
// or with any string of the KB.
func checkPins(t testing.TB, k *KB, ix *Index, text string) {
	t.Helper()
	kbStrs := append([]string{text}, heaptest.Strings(k.ontology)...)
	kbStrs = append(kbStrs, heaptest.Strings(k.entities)...)
	kbStrs = append(kbStrs, heaptest.Strings(k.triples)...)
	strs := heaptest.Strings(ix)
	if ix.arena != "" && !slices.Contains(strs, ix.arena) {
		t.Fatal("the walk did not reach the Index's arena")
	}
	for _, s := range strs {
		if i := heaptest.PointsInto(s, kbStrs); i >= 0 {
			t.Fatalf("the Index's string %.40q shares bytes with the KB's %.40q", s, kbStrs[i])
		}
	}
}

// CheckAgainstReference holds a KB, and text, the bytes it was read from
// (or ""), to the frozen reference: BuildIndex builds an Index that
// answers every method as the reference Index does (checkIndex) and
// shares no byte with the KB or text. It is exported for the package's
// external tests, which bring the websim KBs.
func CheckAgainstReference(t testing.TB, k *KB, text string) {
	t.Helper()
	ix := k.BuildIndex()
	checkPins(t, k, ix, text)
	checkIndex(t, k, ix, newRefIndex(k))
}
