package kb

import (
	"strings"
	"testing"
)

// FuzzReadKB: kb.tsv is operator input that every batch run reads. No
// bytes make Read panic, and a KB it accepts writes bytes that read back
// into a KB writing the same bytes, with the same Digest; its Index and
// lookups equal the frozen eager reference's (CheckAgainstReference).
// Seeds: the Write golden here, and truncated and mis-escaped records
// under testdata/fuzz.
func FuzzReadKB(f *testing.F) {
	f.Add(goldenKB)
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var first strings.Builder
		if err := k.Write(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Read(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("reading back what Write wrote: %v\n%q", err, first.String())
		}
		var second strings.Builder
		if err := back.Write(&second); err != nil {
			t.Fatal(err)
		}
		if second.String() != first.String() {
			t.Fatalf("read back, the KB writes\n%q\nnot\n%q", second.String(), first.String())
		}
		if back.Digest() != k.Digest() {
			t.Fatalf("read back, the KB digests to %s, not %s", back.Digest(), k.Digest())
		}
		CheckAgainstReference(t, k)
	})
}
