package ceres

import (
	"bytes"
	"context"
	"testing"

	"ceres/internal/core"
)

// stateBytesPerInputByte bounds what a model file may decode to: the
// strings (16-byte header plus contents) and floats of the decoded state
// total at most this many bytes per byte of input. The cheapest string on
// the wire is an empty one, two bytes for a 16-byte header; everything
// else costs at least its own size.
const stateBytesPerInputByte = 8

// stringsAndFloats sizes the variable part of a decoded state.
func stringsAndFloats(st *core.SiteModelState) int {
	n := 0
	strs := func(ss []string) {
		for _, s := range ss {
			n += 16 + len(s)
		}
	}
	for _, c := range st.Clusters {
		strs(c.Exemplar)
		ms := c.Model
		if ms == nil {
			continue
		}
		strs(ms.Classes)
		strs(ms.Featurizer.Names)
		strs(ms.Featurizer.Frequent)
		if ms.LR != nil {
			n += 8 * (len(ms.LR.W) + len(ms.LR.B))
		}
	}
	return n
}

// FuzzReadSiteModel feeds ReadSiteModel the bytes PUT /v1/sites/{site}/model
// takes from the network. No input may panic or hang it; an input it
// accepts is a whole model: it decodes to no more than
// stateBytesPerInputByte times its size, re-encodes to a file that loads
// to the same state (compared as encodings, which are bit-exact, so a NaN
// weight equals itself), and serves a page or refuses to — a classifier
// whose shape disagrees with its dictionary or class space is turned away
// at load, never met while scoring.
func FuzzReadSiteModel(f *testing.F) {
	c, err := DemoCorpus("movies", 7, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadSiteModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n := stringsAndFloats(m.sm.State()); n > stateBytesPerInputByte*len(data) {
			t.Fatalf("%d input bytes decoded to %d bytes of strings and floats", len(data), n)
		}
		var enc bytes.Buffer
		if _, err := m.WriteBinary(&enc); err != nil {
			t.Fatalf("re-encoding an accepted model: %v", err)
		}
		again, err := ReadSiteModel(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded model does not load: %v", err)
		}
		var enc2 bytes.Buffer
		if _, err := again.WriteBinary(&enc2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatalf("re-encoded model decodes to a different state (%d vs %d bytes)", enc.Len(), enc2.Len())
		}
		_, _ = m.Extract(context.Background(), c.Pages) // an error is a refusal; a panic is the defect
	})
}
