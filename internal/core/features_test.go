package core

import (
	"context"
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
	sp := streamPage(pages[0])
	v1 := fz.Features(sp, 5)
	v2 := fz.Features(sp, 5)
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
				dirVec = vecSet(fz.Features(streamPage(pages[a.PageIdx]), a.FieldIdx))
			}
		case websim.PredGenre:
			if genreVec == nil {
				genreVec = vecSet(fz.Features(streamPage(pages[a.PageIdx]), a.FieldIdx))
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

func TestFeatureAblationFlags(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 10, defaultStyle())
	full := NewFeaturizer(pages, FeatureOptions{})
	noStruct := NewFeaturizer(pages, FeatureOptions{DisableStructural: true})
	noText := NewFeaturizer(pages, FeatureOptions{DisableText: true})
	sp := streamPage(pages[0])
	nFull := len(full.Features(sp, 8))
	nNoStruct := len(noStruct.Features(sp, 8))
	nNoText := len(noText.Features(sp, 8))
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
			fz.Features(sp, fi)
		}
	}
	before := fz.Dict().Len()
	fz.Freeze()
	for _, p := range pages[3:] {
		sp := streamPage(p)
		for fi := range p.Fields {
			fz.Features(sp, fi)
		}
	}
	if fz.Dict().Len() != before {
		t.Errorf("frozen dictionary grew: %d -> %d", before, fz.Dict().Len())
	}
}

// BenchmarkFeaturize measures the training featurizer — names built in a
// buffer and looked up in the dictionary, a fresh sorted slice per field
// — over every field of one streamed page.
func BenchmarkFeaturize(b *testing.B) {
	pages, K, _, _ := buildMovieSite(b, 60, defaultStyle())
	ann, err := Annotate(context.Background(), pages, K, TopicOptions{}, RelationOptions{}, 0)
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
			if v := fz.Features(sp, fi); len(v) == 0 {
				b.Fatal("no features")
			}
		}
	}
}
