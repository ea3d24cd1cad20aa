package core

import (
	"context"
	"slices"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/mlr"
	"ceres/internal/websim"
)

// streamPage streams p the way BuildExamples does under the default
// feature options.
func streamPage(p *Page) *dom.StreamPage {
	s := pageStreamer{opts: featureStreamOptions(FeatureOptions{}.withDefaults())}
	return s.stream(p)
}

// fieldFeatures is the vector of field fi of a page streamed under
// featureStreamOptions(fz.opts).
func (fz *Featurizer) fieldFeatures(sp *dom.StreamPage, fi int) mlr.Vector {
	return fz.appendFeatures(nil, sp, fi)
}

func TestFeaturizerBasics(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 15, defaultStyle())
	fz := NewFeaturizer(pages, FeatureOptions{})
	// The field labels ("Director", "Genres", ...) appear on every page
	// and must be in the frequent-string lexicon.
	for _, s := range []string{"Director", "Genres", "Cast"} {
		if !fz.frequent[s] {
			t.Errorf("frequent strings missing %q", s)
		}
	}
	// Film titles are unique per page and must not be frequent.
	title := pages[0].Fields[0].Text
	if fz.frequent[title] {
		t.Errorf("unique title %q should not be frequent", title)
	}
	// Features are non-empty and deterministic.
	vs := fz.Features(pages[0], []int{5, 5})
	v1, v2 := vs[0], vs[1]
	if len(v1) == 0 {
		t.Fatalf("no features for field %q", pages[0].Fields[5].Text)
	}
	if len(v1) != len(v2) {
		t.Fatalf("featurizer nondeterministic")
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("featurizer nondeterministic at %d", i)
		}
	}
}

func TestFeaturesDistinguishFieldRoles(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 20, defaultStyle())
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	fz := NewFeaturizer(pages, FeatureOptions{})
	// Collect the feature sets of director vs genre annotations; they
	// must differ (different table rows, different label text nearby).
	var dirVec, genreVec map[int]bool
	for _, a := range res.Annotations {
		switch a.Predicate {
		case websim.PredDirectedBy:
			if dirVec == nil {
				dirVec = vecSet(fz.fieldFeatures(streamPage(pages[a.PageIdx]), a.FieldIdx))
			}
		case websim.PredGenre:
			if genreVec == nil {
				genreVec = vecSet(fz.fieldFeatures(streamPage(pages[a.PageIdx]), a.FieldIdx))
			}
		}
	}
	if dirVec == nil || genreVec == nil {
		t.Fatal("missing annotations for director or genre")
	}
	same := true
	for k := range dirVec {
		if !genreVec[k] {
			same = false
		}
	}
	if same && len(dirVec) == len(genreVec) {
		t.Errorf("director and genre fields have identical features")
	}
}

func vecSet(v mlr.Vector) map[int]bool {
	out := map[int]bool{}
	for _, f := range v {
		out[f.Index] = true
	}
	return out
}

// TestFeaturesNumbersInFieldOrder: Features over a list of fields, one of
// them repeated, numbers features as featurizing the fields one at a time
// in that order does, and returns what that walk returns.
func TestFeaturesNumbersInFieldOrder(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 6, defaultStyle())
	fis := []int{8, 3, 8, 5, 0}
	got := NewFeaturizer(pages, FeatureOptions{}).Features(pages[1], fis)
	want := NewFeaturizer(pages, FeatureOptions{})
	sp := streamPage(pages[1])
	for i, fi := range fis {
		if w := want.fieldFeatures(sp, fi); !slices.Equal(got[i], w) {
			t.Fatalf("field %d: Features gives %v, one at a time %v", fi, got[i], w)
		}
	}
}

func TestFeatureAblationFlags(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 10, defaultStyle())
	full := NewFeaturizer(pages, FeatureOptions{})
	noStruct := NewFeaturizer(pages, FeatureOptions{DisableStructural: true})
	noText := NewFeaturizer(pages, FeatureOptions{DisableText: true})
	sp := streamPage(pages[0])
	nFull := len(full.fieldFeatures(sp, 8))
	nNoStruct := len(noStruct.fieldFeatures(sp, 8))
	nNoText := len(noText.fieldFeatures(sp, 8))
	if nNoStruct >= nFull || nNoText >= nFull {
		t.Errorf("ablations should drop features: full=%d noStruct=%d noText=%d", nFull, nNoStruct, nNoText)
	}
}

func TestFrozenDictDropsUnseen(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 6, defaultStyle())
	fz := NewFeaturizer(pages[:3], FeatureOptions{})
	for _, p := range pages[:3] {
		sp := streamPage(p)
		for fi := range p.Fields {
			fz.fieldFeatures(sp, fi)
		}
	}
	before := fz.features
	fz.Freeze()
	for _, p := range pages[3:] {
		sp := streamPage(p)
		for fi := range p.Fields {
			fz.fieldFeatures(sp, fi)
		}
	}
	if fz.features != before {
		t.Errorf("frozen featurizer grew: %d -> %d", before, fz.features)
	}
}

// BenchmarkFeaturize measures the training featurizer's walk on a frozen
// featurizer — per element, its tag and attribute values looked up in the
// vocabulary and their (level, offset) tables, per lexicon candidate a
// probe of the text vocabulary; a fresh sorted slice per field — over
// every field of one streamed page.
func BenchmarkFeaturize(b *testing.B) {
	pages, K, _, _ := buildMovieSite(b, 60, defaultStyle())
	ann, err := Annotate(context.Background(), pages, K.BuildIndex(), TopicOptions{}, RelationOptions{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	fz := NewFeaturizer(pages, FeatureOptions{})
	BuildExamples(pages, ann, fz, TrainOptions{Seed: 1})
	fz.Freeze()
	sp := streamPage(pages[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for fi := range pages[0].Fields {
			if v := fz.fieldFeatures(sp, fi); len(v) == 0 {
				b.Fatal("no features")
			}
		}
	}
}
