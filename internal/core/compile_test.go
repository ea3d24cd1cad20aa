package core

import (
	"context"
	"errors"
	"reflect"
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

// TestCompiledFeaturesMatchLegacy asserts the stream featurizer emits
// exactly the vector the string-hashing featurizer builds, for every
// field of every page. Extraction equality alone cannot see a mismatched
// feature whose weight is zero.
func TestCompiledFeaturesMatchLegacy(t *testing.T) {
	m, pages, src := trainTestModel(t, "")
	fz := m.Featurizer
	cm, err := m.Compile()
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
			want := fz.Features(tsp, fi)
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
		cm, err := m.Compile()
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
// cannot compile makes every serve entry return the same error, on every
// call — there is no slower engine to fall back to.
func TestUncompilableModelFailsEveryEntry(t *testing.T) {
	m, pages, src := trainTestModel(t, "")
	unfrozen := NewFeaturizer(pages, FeatureOptions{})
	sm := &SiteModel{Clusters: []*ClusterModel{{
		Model:   &Model{Classes: m.Classes, Featurizer: unfrozen, LR: m.LR},
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
			_, _, err := sm.ExtractBytesOpts(ctx, []PageBytes{{ID: src[0].ID, HTML: []byte(src[0].HTML)}}, ServeOptions{})
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

// TestCompileRequiresFrozenDict: a growing dictionary cannot be inverted.
func TestCompileRequiresFrozenDict(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 5, defaultStyle())
	fz := NewFeaturizer(pages, FeatureOptions{})
	if _, err := fz.Compile(); err == nil {
		t.Fatal("Compile on unfrozen featurizer must fail")
	}
	fz.Freeze()
	if _, err := fz.Compile(); err != nil {
		t.Fatalf("Compile on frozen featurizer: %v", err)
	}
}

// TestCompileSkipsForeignDictNames: names outside the trainer's grammar
// (which the legacy path can never look up either) are ignored, not
// mis-indexed.
func TestCompileSkipsForeignDictNames(t *testing.T) {
	st := FeaturizerState{
		Opts: FeatureOptions{}.withDefaults(),
		Dict: mlr.DictState{Names: []string{
			"garbage", "s|x|0|tag|div", "s|0|99|tag|div", "t|9|0|x",
			"s|0|0|tag|div", "t|1|-1|Director", "s|0|0|unknownattr|v",
		}, Frozen: true},
	}
	fz, err := RestoreFeaturizer(st)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := fz.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := featAt(cf.structural[0][fz.opts.SiblingWindow].tag, cf.vocab.tag["div"]); got != 4 {
		t.Errorf("valid structural feature mis-indexed: got id %d, want 4", got)
	}
	if got := featAt(cf.text[1][1], cf.vocab.text["Director"]); got != 5 {
		t.Errorf("valid text feature mis-indexed: got id %d, want 5", got)
	}
	if len(cf.vocab.tag) != 1 || len(cf.vocab.text) != 1 {
		t.Errorf("vocabulary holds %d tags and %d strings, want the 1 and 1 the grammar admits", len(cf.vocab.tag), len(cf.vocab.text))
	}
}
