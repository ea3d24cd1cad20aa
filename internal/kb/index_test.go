package kb

import (
	"fmt"
	"reflect"
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

// objectItem resolves a triple object to its item.
func (ix *Index) objectItem(o Object) (ItemID, bool) {
	if o.IsEntity() {
		it, ok := ix.entityItem[o.EntityID]
		return it, ok
	}
	it, ok := ix.litItem[strmatch.Normalize(o.Literal)]
	return it, ok
}

// numItems is the number of interned items: entities plus distinct
// literal norms.
func numItems(ix *Index) int { return ix.numEntities + len(ix.litNorms) }

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
	if numItems(ix) != 4+4 { // 4 entities + literals comedy/drama/1989 + f1-as-lit? no: comedy, drama, 1989
		// 4 entities, 3 distinct literal norms.
		if numItems(ix) != 7 {
			t.Fatalf("items = %d, want 7", numItems(ix))
		}
	}
}

// TestIndexCandidatesMatchLegacyMatchItems: AppendCandidates must produce
// exactly KB.MatchItems, item for item, in key order.
func TestIndexCandidatesMatchLegacyMatchItems(t *testing.T) {
	k := sampleKB(t)
	ix := k.BuildIndex()
	texts := []string{
		"Spike Lee", "Lee, Spike", "lee spike", "SPIKE  LEE!", "Comedy",
		"comedy", "Do the Right Thing", "Crooklyn", "1989", "Drama",
		"Danny Aiello", "Nobody Here", "", "   ", "Aiello Danny",
	}
	for _, text := range texts {
		want := k.MatchItems(text)
		var got []string
		for _, it := range ix.AppendCandidates(nil, newFieldKey(text)) {
			got = append(got, ix.Key(it))
		}
		// MatchItems emits entities sorted then the literal; candidate
		// order is ItemID order, which sorts identically.
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("candidates(%q) = %v, want %v", text, got, want)
		}
	}
}

// TestIndexMatchesAgreesWithMatchesObject sweeps every (text, object) pair
// of a KB with aliases, fuzzy-distance names, and shared literals.
func TestIndexMatchesAgreesWithMatchesObject(t *testing.T) {
	k := New(movieOntology())
	ents := []Entity{
		{ID: "f1", Type: "film", Name: "The Shawshank Redemption"},
		{ID: "f2", Type: "film", Name: "Do the Right Thing"},
		{ID: "p1", Type: "person", Name: "Spike Lee", Aliases: []string{"Lee, Spike", "S. Lee"}},
		{ID: "p2", Type: "person", Name: "Frank Welker"},
		{ID: "p3", Type: "person", Name: ""},
	}
	for _, e := range ents {
		if err := k.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []Triple{
		{Subject: "f1", Predicate: "directedBy", Object: EntityObject("p1")},
		{Subject: "f1", Predicate: "hasGenre", Object: LiteralObject("Prison Drama")},
		{Subject: "f2", Predicate: "hasCastMember", Object: EntityObject("p2")},
		{Subject: "f2", Predicate: "releaseYear", Object: LiteralObject("1989")},
	} {
		if err := k.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	ix := k.BuildIndex()
	texts := []string{
		"Spike Lee", "Lee Spike", "spike  lee", "S Lee", "Frank Welker",
		"Frank Welkes", "The Shawshank Redemptian", "the shawshank redemption",
		"Do the Wrong Thing", "prison drama", "Prison Dramas", "1989", "",
		"xyz", "Drama Prison", "welker frank",
	}
	objects := []Object{
		EntityObject("f1"), EntityObject("f2"), EntityObject("p1"),
		EntityObject("p2"), EntityObject("p3"),
		LiteralObject("Prison Drama"), LiteralObject("1989"),
	}
	for _, text := range texts {
		key := newFieldKey(text)
		for _, o := range objects {
			it, ok := ix.objectItem(o)
			if !ok {
				t.Fatalf("objectItem(%v) missing", o)
			}
			want := k.MatchesObject(text, o)
			if got := ix.Matches(key, it); got != want {
				t.Errorf("Matches(%q, %s) = %v, MatchesObject = %v", text, ix.Key(it), got, want)
			}
		}
	}
}

// TestIndexObjectItemsMatchObjectKeys: the sorted object slice must carry
// the same identities as the legacy map form.
func TestIndexObjectItemsMatchObjectKeys(t *testing.T) {
	k := sampleKB(t)
	ix := k.BuildIndex()
	for _, id := range k.EntityIDs() {
		it, ok := ix.EntityItem(id)
		if !ok {
			t.Fatalf("EntityItem(%q) missing", id)
		}
		want := k.ObjectKeys(id)
		items := ix.ObjectItems(it)
		if len(items) != len(want) {
			t.Fatalf("ObjectItems(%s): %d items, want %d", id, len(items), len(want))
		}
		for i, o := range items {
			if !want[ix.Key(o)] {
				t.Errorf("ObjectItems(%s) has unexpected %s", id, ix.Key(o))
			}
			if i > 0 && items[i-1] >= o {
				t.Errorf("ObjectItems(%s) not sorted/unique", id)
			}
		}
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
		key := r.Pred + "\x00" + ix.Key(r.Obj)
		if seen[key] {
			t.Fatalf("duplicate relation %s %s", r.Pred, ix.Key(r.Obj))
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

// TestLookupEntitiesAllocs: the exact-match-only short circuit must not
// sort, dedup, or copy. Two allocations cover the normalized string and
// (for multi-token text) its token key.
func TestLookupEntitiesAllocs(t *testing.T) {
	k := sampleKB(t)
	for _, tc := range []struct {
		text string
		max  float64
	}{
		{"Do the Right Thing", 1}, // single exact hit, multi-token
		{"Crooklyn", 1},           // single exact hit, single token
		{"Nobody", 1},             // miss, single token
	} {
		allocs := testing.AllocsPerRun(200, func() {
			k.LookupEntities(tc.text)
		})
		if allocs > tc.max {
			t.Errorf("LookupEntities(%q) allocates %.1f/run, want <= %.0f", tc.text, allocs, tc.max)
		}
	}
}

// TestLookupEntitiesMultiHit: the sort/dedup path still runs when several
// entities share a name or token key.
func TestLookupEntitiesMultiHit(t *testing.T) {
	k := New(movieOntology())
	for _, e := range []Entity{
		{ID: "z1", Type: "person", Name: "John Smith"},
		{ID: "a1", Type: "person", Name: "John Smith"},
		{ID: "m1", Type: "person", Name: "Smith, John"},
	} {
		if err := k.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	// "john smith" hits z1/a1 exactly and m1 through the token index.
	got := k.LookupEntities("John Smith")
	want := []string{"a1", "m1", "z1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LookupEntities = %v, want %v", got, want)
	}
	// Exact-only multi-hit (no token-index entry) must come back sorted.
	k2 := New(movieOntology())
	for _, e := range []Entity{
		{ID: "z1", Type: "person", Name: "John Smith"},
		{ID: "a1", Type: "person", Name: "John Smith"},
	} {
		if err := k2.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := k2.LookupEntities("John Smith"); !reflect.DeepEqual(got, []string{"a1", "z1"}) {
		t.Fatalf("exact-only multi-hit = %v, want [a1 z1]", got)
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
