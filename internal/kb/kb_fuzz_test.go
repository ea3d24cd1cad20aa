package kb

import (
	"strings"
	"testing"
)

// FuzzReadKB: kb.tsv is operator input that every batch run reads. No
// bytes make Read panic, and a KB it accepts writes bytes that read back
// into a KB writing the same bytes, with the same Digest; and its Index
// answers as the frozen reference Index does and holds no byte of src or
// of the KB (CheckAgainstReference). DigestTSV, which every harvest runs
// in place of Read, gives Read's verdict and error on every input, and on
// one Read accepts, the Digest of the KB Read builds.
// Seeds: the Write golden here, the golden in an order and a layout Write
// never writes (unorderedKB), and truncated and mis-escaped records under
// testdata/fuzz.
func FuzzReadKB(f *testing.F) {
	f.Add(goldenKB)
	f.Add(unorderedKB)
	f.Fuzz(func(t *testing.T, src string) {
		k, err := Read(strings.NewReader(src))
		digest, derr := DigestTSV([]byte(src))
		if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
			t.Fatalf("Read's error %v, DigestTSV's %v", err, derr)
		}
		if err != nil {
			return
		}
		if digest != k.Digest() {
			t.Fatalf("DigestTSV gives %s, the KB Read builds digests to %s", digest, k.Digest())
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
		CheckAgainstReference(t, k, src)
	})
}
