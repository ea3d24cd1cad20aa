package core

import (
	"testing"

	"ceres/internal/mlr"
	"ceres/internal/websim"
)

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
	f := pages[0].Fields[5]
	v1 := fz.Features(f)
	v2 := fz.Features(f)
	if len(v1) == 0 {
		t.Fatalf("no features for field %q", f.Text)
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
				dirVec = vecSet(fz.Features(pages[a.PageIdx].Fields[a.FieldIdx]))
			}
		case websim.PredGenre:
			if genreVec == nil {
				genreVec = vecSet(fz.Features(pages[a.PageIdx].Fields[a.FieldIdx]))
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
	f := pages[0].Fields[8]
	nFull := len(full.Features(f))
	nNoStruct := len(noStruct.Features(f))
	nNoText := len(noText.Features(f))
	if nNoStruct >= nFull || nNoText >= nFull {
		t.Errorf("ablations should drop features: full=%d noStruct=%d noText=%d", nFull, nNoStruct, nNoText)
	}
}

func TestFrozenDictDropsUnseen(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 6, defaultStyle())
	fz := NewFeaturizer(pages[:3], FeatureOptions{})
	for _, p := range pages[:3] {
		for _, f := range p.Fields {
			fz.Features(f)
		}
	}
	before := fz.Dict().Len()
	fz.Freeze()
	for _, p := range pages[3:] {
		for _, f := range p.Fields {
			fz.Features(f)
		}
	}
	if fz.Dict().Len() != before {
		t.Errorf("frozen dictionary grew: %d -> %d", before, fz.Dict().Len())
	}
}
