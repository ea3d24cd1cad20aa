package ceres

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// trainFuzzSeeds are FuzzTrainSite's seed edits: the hostile pages of
// internal/dom's TestHostilePages at 1 KB, the malformed constructs of
// internal/core's serve differential, and hostile tags, attribute values
// and texts holding the '|' feature names are spelled with.
var trainFuzzSeeds = []string{
	strings.Repeat("< ", 512),
	strings.Repeat("a</x>", 205),
	strings.Repeat("<a>", 73) + strings.Repeat("</b>", 73),
	strings.Repeat("&", 1024),
	strings.Repeat("<div>", 205) + "x",
	`<div><div class="open">`,
	"<!-- row -->",
	`<script>if (a<b) { x("</div>"); }</script><style>p>a{}</style>`,
	"</span></p>",
	"<script>never closed",
	`<p class="s|0|0|tag|a" id="|">t|1|-1|x</p><a|b itemprop="|">|</a|b>`,
	`<td class="a|b">Director|</td><td>s|0|0|tag|div</td>`,
}

// FuzzTrainSite trains a small fixed movie site whose pages all carry the
// fuzzed bytes, inserted at the same fraction of each page (so they read
// as template text, and their strings join the frequent-string lexicon).
// No input may panic. Training twice writes the same model bytes; a
// trained model written, read and written again gives the same bytes
// again, and the model read back extracts what the trained one does, over
// the pages it was trained on. A site that cannot train fails with
// ErrNoAnnotations, never with a model that has no trained cluster. The
// seed corpus adds the FuzzStreamMatchesDOM corpus of internal/dom.
func FuzzTrainSite(f *testing.F) {
	c, err := DemoCorpus("movies", 7, 10)
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range trainFuzzSeeds {
		f.Add(s, uint16(i*6553))
	}
	dir := filepath.Join("internal", "dom", "testdata", "fuzz", "FuzzStreamMatchesDOM")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		// go test fuzz v1, then string("page") and int(maxText).
		lines := strings.Split(string(data), "\n")
		page, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		f.Add(page, uint16(i*7919))
	}
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, edit string, at uint16) {
		pages := make([]PageSource, len(c.Pages))
		for i, p := range c.Pages {
			cut := len(p.HTML) * int(at) / (1 << 16)
			pages[i] = PageSource{ID: p.ID, HTML: p.HTML[:cut] + edit + p.HTML[cut:]}
		}
		train := func() *SiteModel {
			m, err := NewPipeline(c.KB).Train(ctx, pages)
			if err != nil {
				if !errors.Is(err, ErrNoAnnotations) {
					t.Fatalf("an untrainable site failed with %v, want ErrNoAnnotations", err)
				}
				return nil
			}
			if m.sm.TrainedClusters() == 0 {
				t.Fatal("training returned a model without a trained cluster")
			}
			return m
		}
		m := train()
		if m == nil {
			return
		}
		var first, second, reread bytes.Buffer
		if _, err := m.WriteBinary(&first); err != nil {
			t.Fatal(err)
		}
		if _, err := train().WriteBinary(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("training twice wrote %d and %d different bytes", first.Len(), second.Len())
		}
		loaded, err := ReadSiteModel(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("a trained model does not load: %v", err)
		}
		if _, err := loaded.WriteBinary(&reread); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), reread.Bytes()) {
			t.Fatalf("a trained model re-encodes to other bytes after a read (%d vs %d)", first.Len(), reread.Len())
		}
		want, err := m.Extract(ctx, pages)
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Extract(ctx, pages)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Triples, want.Triples) {
			t.Fatalf("the loaded model extracts %d triples, the trained one %d", len(got.Triples), len(want.Triples))
		}
	})
}
