package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/mlr"
	"ceres/internal/websim"
)

// trainTestModel fits a model on a small movie site and returns it with
// the training pages, parsed and as generated (for their HTML).
func trainTestModel(t *testing.T, classifier string) (*Model, []*Page, []*websim.Page) {
	t.Helper()
	pages, K, _, src := buildMovieSite(t, 20, defaultStyle())
	ann := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	fz := NewFeaturizer(pages, FeatureOptions{})
	ds, classes := BuildExamples(pages, ann, fz, TrainOptions{Seed: 1})
	fz.Freeze()
	m, _, err := TrainModel(ds, classes, fz, TrainOptions{Classifier: classifier})
	if err != nil {
		t.Fatal(err)
	}
	return m, pages, src
}

// streamFor runs the stream pass the way extractBytes does for a
// single-cluster site served by cm.
func streamFor(sc *ServeScratch, cm *CompiledModel, html string) *dom.StreamPage {
	if sc.stream == nil {
		sc.stream = dom.NewStreamScratch()
	}
	return sc.stream.Stream([]byte(html), dom.StreamOptions{MaxText: cm.fz.maxText, Attrs: structuralAttrs[:]})
}

// TestCompiledFeaturesMatchLegacy asserts the serve engine's walk, which
// resolves a page's elements and texts once and reads the tables per
// field, emits exactly the vector the training walk builds, for every
// field of every page. Extraction equality alone cannot see a mismatched
// feature whose weight is zero.
func TestCompiledFeaturesMatchLegacy(t *testing.T) {
	m, pages, src := trainTestModel(t, "")
	fz := m.Featurizer
	cm, err := compileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewServeScratch()
	var vb mlr.VectorBuilder
	fields, diffs := 0, 0
	for pi, p := range pages {
		sp := streamFor(sc, cm, src[pi].HTML)
		sc.beginPage(sp, cm)
		if sp.Fields() != len(p.Fields) {
			t.Fatalf("page %s: stream %d fields, prepared %d", p.ID, sp.Fields(), len(p.Fields))
		}
		tsp := streamPage(p)
		for fi, f := range p.Fields {
			fields++
			want := fz.fieldFeatures(tsp, fi)
			vb.Reset()
			cm.fz.appendStreamFeatures(&vb, sp, sc, sp.FieldParent(fi))
			got := vb.Build()
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				diffs++
				if diffs <= 3 {
					t.Errorf("page %s field %q: compiled %v != legacy %v", p.ID, f.Text, got, want)
				}
			}
		}
	}
	if diffs > 0 {
		t.Fatalf("%d of %d fields diverged", diffs, fields)
	}
	if fields == 0 {
		t.Fatal("no fields compared")
	}
}

// TestCompiledExtractPageMatchesLegacy asserts the stream pass is
// deep-equal (triples, confidences, order, paths) to the paper-literal
// ExtractPage, for both classifiers.
func TestCompiledExtractPageMatchesLegacy(t *testing.T) {
	for _, classifier := range []string{"", "nb"} {
		m, pages, src := trainTestModel(t, classifier)
		cm, err := compileModel(m)
		if err != nil {
			t.Fatalf("classifier %q: %v", classifier, err)
		}
		sc := NewServeScratch()
		total := 0
		for pi, p := range pages {
			want := ExtractPage(p, m, ExtractOptions{})
			got := cm.ExtractStreamPage(streamFor(sc, cm, src[pi].HTML), p.ID, ExtractOptions{}, sc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("classifier %q page %s: compiled %d extractions != legacy %d\ncompiled: %v\nlegacy: %v",
					classifier, p.ID, len(got), len(want), got, want)
			}
			total += len(want)
		}
		if total == 0 {
			t.Fatalf("classifier %q extracted nothing; differential vacuous", classifier)
		}
	}
}

// TestUncompilableModelFailsEveryEntry: a trained cluster whose model
// cannot compile — here, one with no classifier — makes every serve entry
// return the same error, on every call: there is no slower engine to fall
// back to.
func TestUncompilableModelFailsEveryEntry(t *testing.T) {
	m, _, src := trainTestModel(t, "")
	sm := &SiteModel{Clusters: []*ClusterModel{{
		Model:   &Model{Classes: m.Classes, Featurizer: m.Featurizer},
		Trained: true,
	}}}
	ctx := context.Background()
	sources := []PageSource{{ID: src[0].ID, HTML: src[0].HTML}}
	entries := []struct {
		name string
		call func() error
	}{
		{"ExtractSources", func() error {
			_, err := sm.ExtractSources(ctx, sources)
			return err
		}},
		{"ExtractBytesOpts", func() error {
			_, _, err := sm.ExtractBytesOpts(ctx, func(push func(PageBytes)) (ServeOptions, error) {
				push(PageBytes{ID: src[0].ID, HTML: []byte(src[0].HTML)})
				return ServeOptions{}, nil
			})
			return err
		}},
		{"ExtractScan", func() error {
			_, _, err := sm.ExtractScanOpts(ctx, ServeOptions{}, func(yield func(id string, html []byte) error) error {
				return yield(src[0].ID, []byte(src[0].HTML))
			})
			return err
		}},
	}
	var first error
	for round := 0; round < 2; round++ {
		for _, e := range entries {
			err := e.call()
			if err == nil || errors.Is(err, ErrNotTrained) || errors.Is(err, ErrNoPages) {
				t.Fatalf("%s (call %d): err = %v, want the compile error", e.name, round+1, err)
			}
			if first == nil {
				first = err
			}
			if !errors.Is(err, first) {
				t.Fatalf("%s (call %d): err = %v, want %v", e.name, round+1, err, first)
			}
		}
	}
}

// TestRestoreFeaturizerRefusesUnplaceableNames: a name the grammar
// places is restored to the slot it spells out, under its ID; a name
// outside the grammar or the windows, or a second name for a slot already
// taken, is refused, for the tables could not give its ID back. Level-0
// own text, which no walk emits, still has a slot and round-trips.
func TestRestoreFeaturizerRefusesUnplaceableNames(t *testing.T) {
	opts := FeatureOptions{}.withDefaults()
	valid := []string{"s|0|0|tag|div", "t|1|-1|Director", "s|2|-5|class|a|b", "t|0|0|x"}
	fz, err := RestoreFeaturizer(FeaturizerState{Opts: opts, Names: valid, Frozen: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := featAt(fz.structural[0][opts.SiblingWindow].tag, fz.vocab.tag["div"]); got != 0 {
		t.Errorf("structural feature mis-indexed: got id %d, want 0", got)
	}
	if got := featAt(fz.text[1][1], fz.vocab.text["Director"]); got != 1 {
		t.Errorf("text feature mis-indexed: got id %d, want 1", got)
	}
	if got := featAt(fz.structural[2][0].attr[0], fz.vocab.attr[0]["a|b"]); got != 2 {
		t.Errorf("attribute value holding '|' mis-indexed: got id %d, want 2", got)
	}
	if got := fz.State().Names; !reflect.DeepEqual(got, valid) {
		t.Errorf("names render as %q, want %q", got, valid)
	}
	for _, bad := range []string{
		"garbage", "x|0|0|tag|div", "s|x|0|tag|div", "s|0|x|tag|div", "s|-1|0|tag|div",
		"s|6|0|tag|div", "s|0|6|tag|div", "s|0|-6|tag|div", "t|4|0|x", "t|1|1|x", "t|1|-6|x",
		"s|0|0|unknownattr|v", "s|0|0|class", "s|0|0|", "t|1|0|", "s|0", "s|+0|0|tag|div",
	} {
		names := append(slices.Clone(valid), bad)
		if _, err := RestoreFeaturizer(FeaturizerState{Opts: opts, Names: names, Frozen: true}); err == nil {
			t.Errorf("RestoreFeaturizer accepted %q beside %q", bad, valid)
		}
	}
}
