package kb

import (
	"fmt"
	"sort"
	"testing"
	"unicode/utf8"

	"ceres/internal/strmatch"
)

// newFieldKey precomputes the matching form of one text field, as core's
// annotator does through its scratch buffers.
func newFieldKey(text string) FieldKey {
	norm := strmatch.Normalize(text)
	key := FieldKey{
		Norm:     norm,
		TokenKey: strmatch.TokenSetKeyNormalized(norm),
		RuneLen:  utf8.RuneCountInString(norm),
	}
	if key.RuneLen >= 8 {
		key.Runes = []rune(norm)
	}
	return key
}

// EntityItem resolves an entity ID to its item.
func (ix *Index) EntityItem(id string) (ItemID, bool) {
	e := sort.Search(ix.numEntities, func(e int) bool { return ix.entityID(e) >= id })
	if e < ix.numEntities && ix.entityID(e) == id {
		return ItemID(e), true
	}
	return 0, false
}

// objectItem resolves a triple object to its item.
func (ix *Index) objectItem(o Object) (ItemID, bool) {
	if o.IsEntity() {
		return ix.EntityItem(o.EntityID)
	}
	if nk := ix.lookup(strmatch.Normalize(o.Literal)); nk != nil && nk.lit >= 0 {
		return nk.lit, true
	}
	return 0, false
}

// numItems is the number of interned items: entities plus distinct
// literal norms.
func numItems(ix *Index) int { return ix.numEntities + len(ix.litKeys) }

// Key returns the Object.Key()-compatible string identity of an item.
func (ix *Index) Key(it ItemID) string {
	if ix.IsEntity(it) {
		return "e:" + ix.EntityID(it)
	}
	return "lit:" + ix.str(ix.litKeys[int(it)-ix.numEntities].norm)
}

// TestIndexItemOrder: ItemID order must coincide with Object.Key() string
// order — entities sorted by ID first, then literals sorted by norm — so
// the core package can substitute ItemID comparisons for key comparisons.
func TestIndexItemOrder(t *testing.T) {
	ix := sampleKB(t).BuildIndex()
	var keys []string
	for it := 0; it < numItems(ix); it++ {
		keys = append(keys, ix.Key(ItemID(it)))
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("ItemID order does not follow key order: %v", keys)
	}
	if numItems(ix) != 4+3 { // 4 entities, 3 distinct literal norms
		t.Fatalf("items = %d, want 7", numItems(ix))
	}
}

// TestIndexRelationsDedup: duplicate (pred, object) pairs collapse to the
// first occurrence, in insertion order, like Algorithm 2's per-page skip.
func TestIndexRelationsDedup(t *testing.T) {
	k := sampleKB(t)
	// Add a duplicate of an existing triple and a case-variant literal that
	// normalizes to the same item.
	for _, tr := range []Triple{
		{Subject: "f1", Predicate: "directedBy", Object: EntityObject("p1")},
		{Subject: "f1", Predicate: "hasGenre", Object: LiteralObject("COMEDY!")},
	} {
		if err := k.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	ix := k.BuildIndex()
	f1, _ := ix.EntityItem("f1")
	rels := ix.Relations(f1)
	seen := map[string]bool{}
	for _, r := range rels {
		key := ix.Predicate(r.Pred) + "\x00" + ix.Key(r.Obj)
		if seen[key] {
			t.Fatalf("duplicate relation %s %s", ix.Predicate(r.Pred), ix.Key(r.Obj))
		}
		seen[key] = true
	}
	// f1 has 6 distinct (pred, obj) pairs.
	if len(rels) != 6 {
		t.Fatalf("Relations(f1) = %d pairs, want 6", len(rels))
	}
	// ObjectCount still counts duplicates (it feeds the frequency filter).
	comedy, ok := ix.objectItem(LiteralObject("Comedy"))
	if !ok || ix.ObjectCount(comedy) != 3 {
		t.Fatalf("ObjectCount(lit:comedy) = %d, want 3", ix.ObjectCount(comedy))
	}
}

// TestBuildIndexCachesAndInvalidates: repeated builds return the same
// frozen index until a mutation invalidates it.
func TestBuildIndexCachesAndInvalidates(t *testing.T) {
	k := sampleKB(t)
	a, b := k.BuildIndex(), k.BuildIndex()
	if a != b {
		t.Fatal("BuildIndex should cache between mutations")
	}
	if err := k.AddEntity(Entity{ID: "p9", Type: "person", Name: "New Person"}); err != nil {
		t.Fatal(err)
	}
	c := k.BuildIndex()
	if c == a {
		t.Fatal("AddEntity should invalidate the cached index")
	}
	if _, ok := c.EntityItem("p9"); !ok {
		t.Fatal("rebuilt index missing new entity")
	}
	if err := k.AddTriple(Triple{Subject: "p9", Predicate: "actedIn", Object: EntityObject("f1")}); err != nil {
		t.Fatal(err)
	}
	if k.BuildIndex() == c {
		t.Fatal("AddTriple should invalidate the cached index")
	}
}

// TestIndexEmptyKB: an empty KB indexes to zero items without panicking.
func TestIndexEmptyKB(t *testing.T) {
	ix := New(movieOntology()).BuildIndex()
	if numItems(ix) != 0 || ix.NumTriples() != 0 {
		t.Fatalf("empty KB: %d items, %d triples", numItems(ix), ix.NumTriples())
	}
	if got := ix.AppendCandidates(nil, newFieldKey("anything")); len(got) != 0 {
		t.Fatalf("candidates on empty KB: %v", got)
	}
}

// FieldKey candidate generation must stay allocation-free when appending
// into a pre-grown buffer.
func TestAppendCandidatesAllocs(t *testing.T) {
	ix := sampleKB(t).BuildIndex()
	key := newFieldKey("Spike Lee")
	buf := make([]ItemID, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		buf = ix.AppendCandidates(buf[:0], key)
	})
	if allocs != 0 {
		t.Errorf("AppendCandidates allocates %.1f/run, want 0", allocs)
	}
	if len(buf) != 1 {
		t.Fatalf("candidates = %d, want 1", len(buf))
	}
}

func ExampleIndex() {
	k := New(NewOntology(Predicate{Name: "directedBy", Domain: "film", Range: "person"}))
	k.AddEntity(Entity{ID: "f1", Type: "film", Name: "Do the Right Thing"})
	k.AddEntity(Entity{ID: "p1", Type: "person", Name: "Spike Lee", Aliases: []string{"Lee, Spike"}})
	k.AddTriple(Triple{Subject: "f1", Predicate: "directedBy", Object: EntityObject("p1")})
	ix := k.BuildIndex()
	key := newFieldKey("LEE, Spike")
	for _, it := range ix.AppendCandidates(nil, key) {
		fmt.Println(ix.Key(it))
	}
	// Output: e:p1
}
