package strmatch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// levenshtein is LevenshteinRunes over strings.
func levenshtein(a, b string) int {
	return LevenshteinRunes([]rune(a), []rune(b))
}

func TestLevenshteinBasic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"a", "b", 1},
		{"gumbo", "gambol", 2},
		{"žluťoučký", "zlutoucky", 4},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("LevenshteinRunes(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool { return levenshtein(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b string) bool { return levenshtein(a, b) == levenshtein(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		return levenshtein(a, c) <= levenshtein(a, b)+levenshtein(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinBoundedByLengths(t *testing.T) {
	f := func(a, b string) bool {
		d := levenshtein(a, b)
		la, lb := len([]rune(a)), len([]rune(b))
		max := la
		if lb > max {
			max = lb
		}
		diff := la - lb
		if diff < 0 {
			diff = -diff
		}
		return d >= diff && d <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinUnitAppend(t *testing.T) {
	f := func(a string) bool { return levenshtein(a, a+"x") == 1 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinBounded(t *testing.T) {
	if d, ok := LevenshteinBounded("kitten", "sitting", 3); !ok || d != 3 {
		t.Errorf("got %d,%v want 3,true", d, ok)
	}
	if d, ok := LevenshteinBounded("kitten", "sitting", 2); ok || d != 3 {
		t.Errorf("got %d,%v want 3,false", d, ok)
	}
	// Length pre-check path.
	if _, ok := LevenshteinBounded("ab", "abcdefgh", 2); ok {
		t.Errorf("length gap exceeds max: want false")
	}
}

func TestLevenshteinBoundedAgreesWithExact(t *testing.T) {
	f := func(a, b string, max uint8) bool {
		m := int(max % 8)
		d := levenshtein(a, b)
		bd, ok := LevenshteinBounded(a, b, m)
		if d <= m {
			return ok && bd == d
		}
		return !ok && bd == m+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLevenshteinMatchesFullMatrix holds the one-row kernel to the
// textbook (m+1)×(n+1) table over random strings from a four-letter
// alphabet (so that many runes match), on both sides of the length where
// the row leaves the stack.
func TestLevenshteinMatchesFullMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() []rune {
		n := rng.Intn(300)
		if rng.Intn(2) == 0 {
			n = rng.Intn(12)
		}
		r := make([]rune, n)
		for i := range r {
			r[i] = rune("abcé"[rng.Intn(4)])
		}
		return r
	}
	for trial := 0; trial < 500; trial++ {
		a, b := word(), word()
		d := make([][]int, len(a)+1)
		for i := range d {
			d[i] = make([]int, len(b)+1)
			d[i][0] = i
		}
		for j := range d[0] {
			d[0][j] = j
		}
		for i := 1; i <= len(a); i++ {
			for j := 1; j <= len(b); j++ {
				cost := 1
				if a[i-1] == b[j-1] {
					cost = 0
				}
				d[i][j] = min(d[i-1][j-1]+cost, d[i-1][j]+1, d[i][j-1]+1)
			}
		}
		if got, want := LevenshteinRunes(a, b), d[len(a)][len(b)]; got != want {
			t.Fatalf("LevenshteinRunes(%q, %q) = %d, want %d", string(a), string(b), got, want)
		}
	}
}

func BenchmarkLevenshteinXPathLength(b *testing.B) {
	// Representative XPath strings (paper Figure 2 scale).
	x1 := "/html[1]/body[1]/div[3]/div[2]/div[1]/div[2]/div[4]/div[8]/div[2]/b[1]/a[1]"
	x2 := "/html[1]/body[1]/div[3]/div[2]/div[1]/div[2]/div[4]/div[9]/div[2]/b[1]/a[1]"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		levenshtein(x1, x2)
	}
}
