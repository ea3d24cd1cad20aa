package kbtest

import (
	"fmt"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"ceres/internal/kb"
	"ceres/internal/strmatch"
)

// fieldKey is the match form annotation computes for a page field.
func fieldKey(text string) kb.FieldKey {
	norm := strmatch.Normalize(text)
	key := kb.FieldKey{Norm: norm, TokenKey: strmatch.TokenSetKeyNormalized(norm), RuneLen: utf8.RuneCountInString(norm)}
	if key.RuneLen >= 8 {
		key.Runes = []rune(norm)
	}
	return key
}

// indexOf returns the index of a KB with one entity named each of names
// (IDs e00, e01, … in order) and, for each name with a non-empty norm, a
// triple carrying it as a literal; and the literal items by name.
func indexOf(t *testing.T, names []string) (*kb.Index, map[string]kb.ItemID) {
	t.Helper()
	k := kb.New(kb.NewOntology(kb.Predicate{Name: "p", Domain: "t"}))
	for i, name := range names {
		if err := k.AddEntity(kb.Entity{ID: fmt.Sprintf("e%02d", i), Type: "t", Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range names {
		if strmatch.Normalize(name) == "" {
			continue
		}
		if err := k.AddTriple(kb.Triple{Subject: fmt.Sprintf("e%02d", i), Predicate: "p", Object: kb.LiteralObject(name)}); err != nil {
			t.Fatal(err)
		}
	}
	ix := k.BuildIndex()
	lits := map[string]kb.ItemID{}
	for _, name := range names {
		if c := ix.AppendCandidates(nil, fieldKey(name)); len(c) > 0 && !ix.IsEntity(c[len(c)-1]) {
			lits[name] = c[len(c)-1]
		}
	}
	return ix, lits
}

// TestFuzzyEqual checks FuzzyEqual on each case and holds Index.Matches to
// it, with the case's second string as an entity's name and as a literal.
func TestFuzzyEqual(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"Spike Lee", "spike lee", true},
		{"Lee, Spike", "Spike Lee", true},
		{"Do the Right Thing", "Do the Right Thing", true},
		{"Do the Right Thing", "Do the Right Thing!", true},
		{"Do the Right Thing", "Do the Wrong Thing", false},
		{"Pilot", "Pilot", true},
		{"Pilot", "Pylot", false}, // short strings must match exactly
		{"The Shawshank Redemption", "The Shawshank Redemptian", true},
		{"", "", false},
		{"", "a", false},
		{"abc", "xyz", false},
		{"Björk", "Bjork", true},
		// "frank welker" is 12 runes, so the edit budget is 1 and a single
		// substitution is within tolerance.
		{"Frank Welker", "Frank Welkes", true},
		// Edit-budget boundaries: <8 runes tolerates 0 edits, 8-15 runes 1,
		// 16-23 runes 2, >=24 runes 3 (the cap). The budget is taken from
		// the shorter side.
		{"abcdefg", "abcdefx", false},                                             // 7 runes: budget 0
		{"abcdefgh", "abcdefgx", true},                                            // 8 runes: budget 1
		{"abcdefgh", "abcdefxy", false},                                           // 2 edits exceed budget 1
		{"abcdefghijklmnop", "abcdefghijklmnxy", true},                            // 16 runes: budget 2
		{"abcdefghijklmno", "abcdefghijklmxy", false},                             // 15 runes: budget 1 < 2 edits
		{"abcdefghijklmnopqrstuvwx", "abcdefghijklmnopqrstuxyz", true},            // 24 runes: budget 3
		{"abcdefghijklmnopqrstuvwxyz12345", "abcdefghijklmnopqrstuvwwxyz", false}, // 4 edits exceed the cap
		{"abcdefg", "abcdefgh", false},                                            // shorter side 7 runes: budget 0
	}
	var names []string
	for _, c := range cases {
		names = append(names, c.b)
	}
	ix, lits := indexOf(t, names)
	for i, c := range cases {
		if got := FuzzyEqual(c.a, c.b); got != c.want {
			t.Errorf("FuzzyEqual(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
		key := fieldKey(c.a)
		if got := ix.Matches(key, kb.ItemID(i)); got != c.want {
			t.Errorf("Matches(%q, entity named %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if lit, ok := lits[c.b]; ok {
			if got := ix.Matches(key, lit); got != c.want {
				t.Errorf("Matches(%q, literal %q) = %v, want %v", c.a, c.b, got, c.want)
			}
		} else if strmatch.Normalize(c.b) != "" {
			t.Fatalf("no literal item for %q", c.b)
		}
	}
}

// TestFuzzyEqualReflexive: a string matches itself unless it normalizes
// to nothing, under FuzzyEqual and under Index.Matches against an entity
// so named.
func TestFuzzyEqualReflexive(t *testing.T) {
	f := func(a string) bool {
		want := strmatch.Normalize(a) != ""
		ix, _ := indexOf(t, []string{a})
		return FuzzyEqual(a, a) == want && ix.Matches(fieldKey(a), 0) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFuzzyEqualSymmetric(t *testing.T) {
	f := func(a, b string) bool { return FuzzyEqual(a, b) == FuzzyEqual(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
