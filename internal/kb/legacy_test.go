package kb_test

import (
	"reflect"
	"sort"
	"testing"

	"ceres/internal/kb"
	"ceres/internal/kb/kbtest"
)

// The string-keyed lookups of kbtest, which annotation ran before the
// Index, and the Index's answers held to them on small KBs.

func TestLiteralAndItems(t *testing.T) {
	k := kb.SampleKB(t)
	if !k.HasLiteral("Comedy") || !k.HasLiteral("comedy!") {
		t.Errorf("HasLiteral(Comedy) should hold")
	}
	if k.HasLiteral("Horror") {
		t.Errorf("Horror is not a literal")
	}
	items := kbtest.MatchItems(k, "Spike Lee")
	if len(items) != 1 || items[0] != "e:p1" {
		t.Errorf("MatchItems = %v", items)
	}
	items = kbtest.MatchItems(k, "Comedy")
	if len(items) != 1 || items[0] != "lit:comedy" {
		t.Errorf("MatchItems(Comedy) = %v", items)
	}
}

func TestObjectKeysAndFrequency(t *testing.T) {
	k := kb.SampleKB(t)
	keys := kbtest.ObjectKeys(k, "f1")
	for _, want := range []string{"e:p1", "e:p2", "lit:comedy", "lit:drama", "lit:1989"} {
		if !keys[want] {
			t.Errorf("ObjectKeys(f1) missing %q: %v", want, keys)
		}
	}
	// p1 is object of 3 triples out of 9.
	freq := kbtest.FrequentObjectKeys(k, 0.3)
	if !freq["e:p1"] {
		t.Errorf("e:p1 should be frequent at 0.3: %v", freq)
	}
	if freq["lit:drama"] {
		t.Errorf("lit:drama should not be frequent at 0.3")
	}
}

func TestMatchesObject(t *testing.T) {
	k := kb.SampleKB(t)
	if !kbtest.MatchesObject(k, "Lee, Spike", kb.EntityObject("p1")) {
		t.Errorf("alias should match")
	}
	if !kbtest.MatchesObject(k, "Spike  Lee ", kb.EntityObject("p1")) {
		t.Errorf("normalized name should match")
	}
	if kbtest.MatchesObject(k, "Danny Aiello", kb.EntityObject("p1")) {
		t.Errorf("wrong person should not match")
	}
	if !kbtest.MatchesObject(k, "comedy", kb.LiteralObject("Comedy")) {
		t.Errorf("literal should match case-insensitively")
	}
	if kbtest.MatchesObject(k, "1989", kb.EntityObject("ghost")) {
		t.Errorf("missing entity should not match")
	}
}

// TestIndexCandidatesMatchLegacyMatchItems: AppendCandidates must produce
// exactly kbtest.MatchItems, item for item, in key order.
func TestIndexCandidatesMatchLegacyMatchItems(t *testing.T) {
	k := kb.SampleKB(t)
	ix := k.BuildIndex()
	texts := []string{
		"Spike Lee", "Lee, Spike", "lee spike", "SPIKE  LEE!", "Comedy",
		"comedy", "Do the Right Thing", "Crooklyn", "1989", "Drama",
		"Danny Aiello", "Nobody Here", "", "   ", "Aiello Danny",
	}
	for _, text := range texts {
		want := kbtest.MatchItems(k, text)
		var got []string
		for _, it := range ix.AppendCandidates(nil, kb.NewFieldKey(text)) {
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
	k := kb.New(kb.MovieOntology())
	ents := []kb.Entity{
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
	for _, tr := range []kb.Triple{
		{Subject: "f1", Predicate: "directedBy", Object: kb.EntityObject("p1")},
		{Subject: "f1", Predicate: "hasGenre", Object: kb.LiteralObject("Prison Drama")},
		{Subject: "f2", Predicate: "hasCastMember", Object: kb.EntityObject("p2")},
		{Subject: "f2", Predicate: "releaseYear", Object: kb.LiteralObject("1989")},
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
	objects := []kb.Object{
		kb.EntityObject("f1"), kb.EntityObject("f2"), kb.EntityObject("p1"),
		kb.EntityObject("p2"), kb.EntityObject("p3"),
		kb.LiteralObject("Prison Drama"), kb.LiteralObject("1989"),
	}
	for _, text := range texts {
		key := kb.NewFieldKey(text)
		for _, o := range objects {
			it, ok := ix.ObjectItem(o)
			if !ok {
				t.Fatalf("ObjectItem(%v) missing", o)
			}
			want := kbtest.MatchesObject(k, text, o)
			if got := ix.Matches(key, it); got != want {
				t.Errorf("Matches(%q, %s) = %v, MatchesObject = %v", text, ix.Key(it), got, want)
			}
		}
	}
}

// TestIndexObjectItemsMatchObjectKeys: the sorted object slice must carry
// the same identities as the legacy map form.
func TestIndexObjectItemsMatchObjectKeys(t *testing.T) {
	k := kb.SampleKB(t)
	ix := k.BuildIndex()
	for _, id := range k.EntityIDs() {
		it, ok := ix.EntityItem(id)
		if !ok {
			t.Fatalf("EntityItem(%q) missing", id)
		}
		want := kbtest.ObjectKeys(k, id)
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
