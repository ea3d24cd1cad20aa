package binmodel

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The files under testdata/ are frozen encodings: fullState() at threshold
// 0.9, and a demo-corpus site model. They are the encoder's reference: a
// change that moves a byte of the format fails here. trained-nb.bin, the
// demo model with the naive-Bayes classifier files no longer carry, is an
// input the root package's TestReadSiteModelRejectsGarbage refuses.
var goldens = []string{"full-state.bin", "trained-lr.bin"}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenReencode decodes each golden file and requires Append to
// reproduce it byte for byte.
func TestGoldenReencode(t *testing.T) {
	for _, name := range goldens {
		golden := readGolden(t, name)
		threshold, st, err := Decode(golden)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if got := Append(nil, threshold, st); !bytes.Equal(got, golden) {
			t.Errorf("%s: re-encoding gives %d bytes that differ from the %d-byte golden", name, len(got), len(golden))
		}
	}
}

// TestGoldenFullState requires the encoding of fullState() to equal its
// golden, so every field the encoder writes is pinned.
func TestGoldenFullState(t *testing.T) {
	golden := readGolden(t, "full-state.bin")
	if got := Append(nil, 0.9, fullState()); !bytes.Equal(got, golden) {
		t.Fatalf("Append(fullState()) gives %d bytes that differ from the %d-byte golden", len(got), len(golden))
	}
}
