package core

import (
	"reflect"
	"testing"

	"ceres/internal/mlr"
)

// trainTestModel fits a model on a small movie site and returns it with
// the training pages.
func trainTestModel(t *testing.T, classifier string) (*Model, []*Page) {
	t.Helper()
	pages, K, _, _ := buildMovieSite(t, 20, defaultStyle())
	ann := Annotate(pages, K, TopicOptions{}, RelationOptions{})
	fz := NewFeaturizer(pages, FeatureOptions{})
	ds, classes := BuildExamples(pages, ann, fz, TrainOptions{Seed: 1})
	fz.Freeze()
	m, _, err := TrainModel(ds, classes, fz, TrainOptions{Classifier: classifier})
	if err != nil {
		t.Fatal(err)
	}
	return m, pages
}

// TestCompiledFeaturesMatchLegacy asserts the compiled featurizer emits
// exactly the vector the string-hashing featurizer builds, for every
// field of every page.
func TestCompiledFeaturesMatchLegacy(t *testing.T) {
	m, pages := trainTestModel(t, "")
	fz := m.Featurizer
	cf, err := fz.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var vb mlr.VectorBuilder
	fields, diffs := 0, 0
	for _, p := range pages {
		for _, f := range p.Fields {
			fields++
			want := fz.Features(f)
			vb.Reset()
			cf.AppendFeatures(&vb, f)
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

// TestCompiledExtractPageMatchesLegacy asserts compiled extraction is
// deep-equal (triples, confidences, order) to the legacy path, for both
// classifiers.
func TestCompiledExtractPageMatchesLegacy(t *testing.T) {
	for _, classifier := range []string{"", "nb"} {
		m, pages := trainTestModel(t, classifier)
		cm, err := m.Compile()
		if err != nil {
			t.Fatalf("classifier %q: %v", classifier, err)
		}
		sc := NewServeScratch()
		total := 0
		for _, p := range pages {
			want := ExtractPage(p, m, ExtractOptions{})
			got := cm.ExtractPage(p, ExtractOptions{}, sc)
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
	if got := cf.structural[0][fz.opts.SiblingWindow].tag["div"]; got != 4 {
		t.Errorf("valid structural feature mis-indexed: got id %d, want 4", got)
	}
	if got := cf.text[1][1]["Director"]; got != 5 {
		t.Errorf("valid text feature mis-indexed: got id %d, want 5", got)
	}
}
