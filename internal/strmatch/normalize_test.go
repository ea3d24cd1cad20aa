package strmatch

import (
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"   ", ""},
		{"Spike Lee", "spike lee"},
		{"Do the Right Thing", "do the right thing"},
		{"  Do   the\tRight\nThing ", "do the right thing"},
		{"Amélie", "amelie"},
		{"Město má mé jméno", "mesto ma me jmeno"},
		{"Björk Guðmundsdóttir", "bjork gudmundsdottir"},
		{"L'Avventura", "l avventura"},
		{"ISBN-13: 978-0-123", "isbn 13 978 0 123"},
		{"Señorita", "senorita"},
		{"ŁÓDŹ", "lodz"},
		{"Falsches Üben", "falsches uben"},
		{"A—B", "a b"},
		{"café", "cafe"},
		{"6' 7\"", "6 7"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeNoDoubleSpaces(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		for i := 0; i+1 < len(n); i++ {
			if n[i] == ' ' && n[i+1] == ' ' {
				return false
			}
		}
		if len(n) > 0 && (n[0] == ' ' || n[len(n)-1] == ' ') {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenSetKey(t *testing.T) {
	if TokenSetKey("Lee, Spike") != TokenSetKey("Spike Lee") {
		t.Errorf("token-set keys should match for reordered names")
	}
	if TokenSetKey("the the the cat") != "cat the" {
		t.Errorf("TokenSetKey should deduplicate: got %q", TokenSetKey("the the the cat"))
	}
	if TokenSetKey("") != "" {
		t.Errorf("empty key expected")
	}
}

func TestNormalizeIntoMatchesNormalize(t *testing.T) {
	f := func(s string) bool {
		return string(NormalizeInto(nil, s)) == Normalize(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeIntoAppends(t *testing.T) {
	dst := []byte("prefix ")
	got := NormalizeInto(dst, "Spike Lee!")
	if string(got) != "prefix spike lee" {
		t.Errorf("NormalizeInto appended %q", got)
	}
	// A suffix that normalizes to nothing must not eat the existing prefix.
	if got := NormalizeInto([]byte("keep"), "!!!"); string(got) != "keep" {
		t.Errorf("NormalizeInto(%q, punctuation) = %q", "keep", got)
	}
}

func TestNormalizeIntoNoAllocWithCapacity(t *testing.T) {
	buf := make([]byte, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		buf = NormalizeInto(buf[:0], "Björk Guðmundsdóttir (1965)")
	})
	if allocs != 0 {
		t.Errorf("NormalizeInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestTokenSetKeyNormalized(t *testing.T) {
	f := func(s string) bool {
		return TokenSetKeyNormalized(Normalize(s)) == TokenSetKey(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Already-canonical inputs come back without allocation.
	if TokenSetKeyNormalized("cat") != "cat" || TokenSetKeyNormalized("") != "" {
		t.Error("single-token keys should round-trip")
	}
	if got := TokenSetKeyNormalized("the the cat"); got != "cat the" {
		t.Errorf("TokenSetKeyNormalized dedup: got %q", got)
	}
}

func TestAppendTokenSetKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"cat", "cat"},
		{"spike lee", "lee spike"},
		{"the the the cat", "cat the"},
		{"b a b a c", "a b c"},
		// More tokens than the stack-array fast path holds.
		{"q p o n m l k j i h g f e d c b a r s t u v w x y z", "a b c d e f g h i j k l m n o p q r s t u v w x y z"},
	}
	for _, c := range cases {
		if got := string(AppendTokenSetKey(nil, c.in)); got != c.want {
			t.Errorf("AppendTokenSetKey(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := AppendTokenSetKey([]byte("x|"), "b a"); string(got) != "x|a b" {
		t.Errorf("AppendTokenSetKey should append: got %q", got)
	}
}
