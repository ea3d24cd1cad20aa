package ceres

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ceres/internal/binmodel"
)

// TestBinaryCodecDifferential is the codec's acceptance test: for every
// DemoCorpus kind, a trained model's state survives the
// ceres.sitemodel/3 format whole — the loaded model's state deep-equals
// the trained one's, Append(Decode(b)) is b again (so every weight keeps
// its last bit), and so is the loaded model's own WriteBinary. Serving
// through the loaded model then yields identical triples.
func TestBinaryCodecDifferential(t *testing.T) {
	for _, kind := range []string{"movies", "movies-longtail", "imdb-films", "imdb-people", "crawl-czech"} {
		t.Run(kind, func(t *testing.T) {
			c, err := DemoCorpus(kind, 7, 30)
			if err != nil {
				t.Fatal(err)
			}
			model, err := NewPipeline(c.KB).Train(context.Background(), c.Pages[:20])
			if err != nil {
				t.Fatal(err)
			}

			var written bytes.Buffer
			if _, err := model.WriteBinary(&written); err != nil {
				t.Fatal(err)
			}
			enc := written.Bytes()
			threshold, decoded, err := binmodel.Decode(enc)
			if err != nil {
				t.Fatalf("decoding: %v", err)
			}
			if again := binmodel.Append(nil, threshold, decoded); !bytes.Equal(again, enc) {
				t.Fatalf("Append(Decode(b)) differs from b (%d vs %d bytes)", len(again), len(enc))
			}

			// Compared as restored models' states: the file stores options
			// resolved and carries no "resolved" mark, which restoring sets.
			loaded, err := ReadSiteModel(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("loading model: %v", err)
			}
			if got, want := loaded.sm.State(), model.sm.State(); loaded.Threshold() != model.Threshold() || !reflect.DeepEqual(got, want) {
				t.Fatalf("loaded state differs from the trained one:\n got %+v\nwant %+v", got, want)
			}
			var roundTripped bytes.Buffer
			if _, err := loaded.WriteBinary(&roundTripped); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(roundTripped.Bytes(), enc) {
				t.Fatalf("round trip altered the model: WriteBinary differs (%d vs %d bytes)",
					roundTripped.Len(), len(enc))
			}

			// Extraction through the loaded model matches the original,
			// triple for triple.
			want, err := model.Extract(context.Background(), c.Pages[20:])
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.Extract(context.Background(), c.Pages[20:])
			if err != nil {
				t.Fatal(err)
			}
			if wj, gj := fmt.Sprintf("%+v", want.Triples), fmt.Sprintf("%+v", got.Triples); wj != gj {
				t.Fatalf("loaded model extracts differently:\n got %s\nwant %s", gj, wj)
			}
		})
	}
}

// TestReadSiteModelCorruptBinary: damaged binary inputs surface the
// codec's typed errors through the public loader — never a panic, never
// a silent partial model.
func TestReadSiteModelCorruptBinary(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 20)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewPipeline(c.KB).Train(context.Background(), c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := model.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	truncated := good[:len(good)/2]
	if _, err := ReadSiteModel(bytes.NewReader(truncated)); !errors.Is(err, binmodel.ErrTruncated) {
		t.Fatalf("truncated model: got %v, want ErrTruncated", err)
	}

	trailing := append(append([]byte{}, good...), 0xFF)
	if _, err := ReadSiteModel(bytes.NewReader(trailing)); !errors.Is(err, binmodel.ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}

	flipped := append([]byte{}, good...)
	flipped[1] ^= 0x20 // damage the magic
	if _, err := ReadSiteModel(bytes.NewReader(flipped)); err == nil {
		t.Fatal("bad magic loaded without error")
	}
}
