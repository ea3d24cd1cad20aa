package kb_test

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ceres/internal/kb"
	"ceres/internal/kb/kbtest"
	"ceres/internal/websim"
)

// The string-keyed lookups of kbtest, which annotation ran before the
// Index, and the Index's answers held to them: on small KBs, and on the
// websim KBs against the frozen reference Index.

func TestLookupEntities(t *testing.T) {
	l := kbtest.New(kb.SampleKB(t))
	for _, text := range []string{"Spike Lee", "spike lee", "Lee, Spike", "SPIKE   LEE"} {
		ids := l.LookupEntities(text)
		if len(ids) != 1 || ids[0] != "p1" {
			t.Errorf("LookupEntities(%q) = %v", text, ids)
		}
	}
	if ids := l.LookupEntities("Nobody Here"); ids != nil {
		t.Errorf("unknown name: %v", ids)
	}
	if ids := l.LookupEntities(""); ids != nil {
		t.Errorf("empty text: %v", ids)
	}
}

// TestLookupEntitiesMultiHit: several entities sharing a name or token key
// come back once each, sorted.
func TestLookupEntitiesMultiHit(t *testing.T) {
	k := kb.New(kb.MovieOntology())
	for _, e := range []kb.Entity{
		{ID: "z1", Type: "person", Name: "John Smith"},
		{ID: "a1", Type: "person", Name: "John Smith"},
		{ID: "m1", Type: "person", Name: "Smith, John"},
	} {
		if err := k.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	// "john smith" hits z1/a1 exactly and m1 through the token index.
	got := kbtest.New(k).LookupEntities("John Smith")
	want := []string{"a1", "m1", "z1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LookupEntities = %v, want %v", got, want)
	}
	// Exact-only multi-hit (no token-index entry) must come back sorted.
	k2 := kb.New(kb.MovieOntology())
	for _, e := range []kb.Entity{
		{ID: "z1", Type: "person", Name: "John Smith"},
		{ID: "a1", Type: "person", Name: "John Smith"},
	} {
		if err := k2.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := kbtest.New(k2).LookupEntities("John Smith"); !reflect.DeepEqual(got, []string{"a1", "z1"}) {
		t.Fatalf("exact-only multi-hit = %v, want [a1 z1]", got)
	}
}

func TestLiteralAndItems(t *testing.T) {
	l := kbtest.New(kb.SampleKB(t))
	if !l.HasLiteral("Comedy") || !l.HasLiteral("comedy!") {
		t.Errorf("HasLiteral(Comedy) should hold")
	}
	if l.HasLiteral("Horror") {
		t.Errorf("Horror is not a literal")
	}
	items := l.MatchItems("Spike Lee")
	if len(items) != 1 || items[0] != "e:p1" {
		t.Errorf("MatchItems = %v", items)
	}
	items = l.MatchItems("Comedy")
	if len(items) != 1 || items[0] != "lit:comedy" {
		t.Errorf("MatchItems(Comedy) = %v", items)
	}
}

func TestObjectKeysAndFrequency(t *testing.T) {
	l := kbtest.New(kb.SampleKB(t))
	if got := len(l.TriplesOf("f1")); got != 6 {
		t.Errorf("TriplesOf(f1) = %d triples, want 6", got)
	}
	if got := len(l.TriplesWithPredicate("hasGenre")); got != 3 {
		t.Errorf("TriplesWithPredicate(hasGenre) = %d triples, want 3", got)
	}
	keys := l.ObjectKeys("f1")
	for _, want := range []string{"e:p1", "e:p2", "lit:comedy", "lit:drama", "lit:1989"} {
		if !keys[want] {
			t.Errorf("ObjectKeys(f1) missing %q: %v", want, keys)
		}
	}
	// p1 is object of 3 triples out of 9.
	freq := l.FrequentObjectKeys(0.3)
	if !freq["e:p1"] {
		t.Errorf("e:p1 should be frequent at 0.3: %v", freq)
	}
	if freq["lit:drama"] {
		t.Errorf("lit:drama should not be frequent at 0.3")
	}
}

func TestMatchesObject(t *testing.T) {
	l := kbtest.New(kb.SampleKB(t))
	if !l.MatchesObject("Lee, Spike", kb.EntityObject("p1")) {
		t.Errorf("alias should match")
	}
	if !l.MatchesObject("Spike  Lee ", kb.EntityObject("p1")) {
		t.Errorf("normalized name should match")
	}
	if l.MatchesObject("Danny Aiello", kb.EntityObject("p1")) {
		t.Errorf("wrong person should not match")
	}
	if !l.MatchesObject("comedy", kb.LiteralObject("Comedy")) {
		t.Errorf("literal should match case-insensitively")
	}
	if l.MatchesObject("1989", kb.EntityObject("ghost")) {
		t.Errorf("missing entity should not match")
	}
}

// TestIndexCandidatesMatchLegacyMatchItems: AppendCandidates must produce
// exactly kbtest.MatchItems, item for item, in key order.
func TestIndexCandidatesMatchLegacyMatchItems(t *testing.T) {
	k := kb.SampleKB(t)
	ix, l := k.BuildIndex(), kbtest.New(k)
	texts := []string{
		"Spike Lee", "Lee, Spike", "lee spike", "SPIKE  LEE!", "Comedy",
		"comedy", "Do the Right Thing", "Crooklyn", "1989", "Drama",
		"Danny Aiello", "Nobody Here", "", "   ", "Aiello Danny",
	}
	for _, text := range texts {
		want := l.MatchItems(text)
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
	ix, l := k.BuildIndex(), kbtest.New(k)
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
			want := l.MatchesObject(text, o)
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
	ix, l := k.BuildIndex(), kbtest.New(k)
	for _, id := range k.EntityIDs() {
		it, ok := ix.EntityItem(id)
		if !ok {
			t.Fatalf("EntityItem(%q) missing", id)
		}
		want := l.ObjectKeys(id)
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

// demoKB is the seed KB of ceres.DemoCorpus("movies", 7, ...).
func demoKB() *kb.KB {
	return websim.BuildKB(websim.NewWorld(websim.WorldConfig{Seed: 7}), websim.FullCoverage(), 9)
}

// crawlKB is the benchmark crawl's seed KB at seed 1 (it does not depend
// on the crawl's scale). A site filter naming no roster site generates
// the KB alone.
func crawlKB() *kb.KB {
	return websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Sites: []string{"no-such-site"}}).SeedKB
}

// TestIndexMatchesReference: for the demo KB and the crawl's seed KB, as
// built and as read back from their kb.tsv, the Index answers as the
// frozen reference Index (CheckAgainstReference), and its candidates for
// every entity name are kbtest's MatchItems.
func TestIndexMatchesReference(t *testing.T) {
	for name, build := range map[string]func() *kb.KB{"demo": demoKB, "crawl": crawlKB} {
		t.Run(name, func(t *testing.T) {
			k := build()
			var text bytes.Buffer
			if err := k.Write(&text); err != nil {
				t.Fatal(err)
			}
			kb.CheckAgainstReference(t, k, "")
			src := text.String()
			read, err := kb.Read(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			kb.CheckAgainstReference(t, read, src)

			ix, l := k.BuildIndex(), kbtest.New(k)
			for _, id := range k.EntityIDs() {
				e, _ := k.Entity(id)
				var got []string
				for _, it := range ix.AppendCandidates(nil, kb.NewFieldKey(e.Name)) {
					got = append(got, ix.Key(it))
				}
				if want := l.MatchItems(e.Name); !reflect.DeepEqual(got, want) {
					t.Fatalf("candidates(%q) = %v, MatchItems %v", e.Name, got, want)
				}
			}
		})
	}
}
