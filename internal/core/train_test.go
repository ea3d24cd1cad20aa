package core

import (
	"fmt"
	"testing"

	"ceres/internal/kb"
	"ceres/internal/websim"
	"ceres/internal/xpath"
)

func emptyKB() *kb.KB {
	return kb.New(websim.MovieOntology())
}

func TestNewClasses(t *testing.T) {
	anns := []Annotation{
		{Predicate: "b"}, {Predicate: "a"}, {Predicate: "b"}, {Predicate: NameClass},
	}
	c := NewClasses(anns)
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (OTHER, a, b, name)", c.Len())
	}
	if c.Name(OtherClass) != "OTHER" {
		t.Errorf("class 0 = %q", c.Name(0))
	}
	if c.Index("a") == OtherClass || c.Index("b") == OtherClass {
		t.Errorf("predicates mapped to OTHER")
	}
	if c.Index("unknown") != OtherClass {
		t.Errorf("unknown predicate should map to OTHER")
	}
	if c.Name(99) != "OTHER" {
		t.Errorf("out-of-range name should be OTHER")
	}
	names := c.Names()
	if len(names) != 4 || names[0] != "OTHER" {
		t.Errorf("Names = %v", names)
	}
}

func TestBuildExamplesShape(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 20, defaultStyle())
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	fz := NewFeaturizer(pages, FeatureOptions{})
	ds, classes := BuildExamples(pages, res, fz, TrainOptions{Seed: 1})
	if ds.Len() == 0 {
		t.Fatal("no examples")
	}
	if classes.Len() < 3 {
		t.Fatalf("too few classes: %v", classes.Names())
	}
	// Positives:negatives roughly 1:3 (fewer negatives only when a page
	// runs out of candidates).
	var pos, neg int
	for _, y := range ds.Y {
		if y == OtherClass {
			neg++
		} else {
			pos++
		}
	}
	if neg == 0 || neg > 3*pos {
		t.Errorf("negative sampling off: %d positives, %d negatives", pos, neg)
	}
	if neg < pos {
		t.Errorf("too few negatives: %d positives, %d negatives", pos, neg)
	}
}

// TestListExclusionKeepsListSiblingsOutOfNegatives: unlabeled cast-list
// nodes must not become negatives when other cast entries are positive.
func TestListExclusionKeepsListSiblingsOutOfNegatives(t *testing.T) {
	// Partial cast coverage: only some list members get annotated, so the
	// rest are unlabeled gold nodes that naive negative sampling would
	// poison (§4.1's motivation).
	w := websim.NewWorld(websim.WorldConfig{Films: 150, People: 200, Seed: 21})
	cov := websim.FullCoverage()
	cov.Cast = 0.3
	K := websim.BuildKB(w, cov, 3)
	site := websim.BuildMovieSite(w, w.Films[:25], defaultStyle(), "partial", 7)
	var pages []*Page
	var gold []*websim.Page
	for _, wp := range site.Pages {
		pages = append(pages, PreparePage(wp.ID, wp.HTML))
		gold = append(gold, wp)
	}
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})

	countBadNegatives := func(opts TrainOptions) int {
		// Rebuild examples and count negatives that are actually gold
		// cast facts (mislabelled list siblings).
		perPage := map[int]map[string]bool{}
		for pi, g := range gold {
			set := map[string]bool{}
			for _, f := range g.Facts {
				set[f.NodePath] = true
			}
			perPage[pi] = set
		}
		// Reimplement the negative selection by diffing: run BuildExamples
		// twice with identical seeds and inspect via annotations map.
		positive := map[[2]int]bool{}
		for _, a := range res.Annotations {
			positive[[2]int{a.PageIdx, a.FieldIdx}] = true
		}
		// We can't see inside BuildExamples, so approximate: compute the
		// exclusion sets directly.
		bad := 0
		for pi := range perPage {
			anns := []Annotation{}
			for _, a := range res.Annotations {
				if a.PageIdx == pi {
					anns = append(anns, a)
				}
			}
			if len(anns) == 0 {
				continue
			}
			excluded := make([]bool, len(pages[pi].Fields))
			if !opts.DisableListExclusion {
				listSiblingExclusions(excluded, streamPage(pages[pi]), anns)
			}
			for fi, f := range pages[pi].Fields {
				if positive[[2]int{pi, fi}] || excluded[fi] {
					continue
				}
				if perPage[pi][f.PathString] {
					bad++ // this gold node is eligible to become a negative
				}
			}
		}
		return bad
	}
	with := countBadNegatives(TrainOptions{})
	without := countBadNegatives(TrainOptions{DisableListExclusion: true})
	if with >= without {
		t.Errorf("list exclusion should shrink eligible bad negatives: with=%d without=%d", with, without)
	}
}

func TestTrainModelClassifiers(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 20, defaultStyle())
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	fz := NewFeaturizer(pages, FeatureOptions{})
	ds, classes := BuildExamples(pages, res, fz, TrainOptions{Seed: 1})
	lr, _, err := TrainModel(ds, classes, fz, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lr.LR == nil || lr.NB != nil {
		t.Errorf("default classifier should be LR")
	}
	nb, _, err := TrainModel(ds, classes, fz, TrainOptions{Classifier: "nb"})
	if err != nil {
		t.Fatal(err)
	}
	if nb.NB == nil {
		t.Errorf("nb classifier not trained")
	}
	// Both classify a field to a full distribution.
	sp := streamPage(pages[0])
	p := lr.Proba(sp, 3)
	if len(p) != classes.Len() {
		t.Errorf("LR proba length %d", len(p))
	}
	p = nb.Proba(sp, 3)
	if len(p) != classes.Len() {
		t.Errorf("NB proba length %d", len(p))
	}
}

// TestListExclusionMatchesXPathPatterns holds the record-based list
// exclusion to the xpath package's patterns over the printed XPaths:
// xpath.Generalize over each predicate's positives, then Matches against
// every field. Besides the annotator's positives, every page gets a
// predicate per pair of fields three apart, so shapes that differ and
// patterns without a wildcard are covered too; so do five pages under
// each malformedEdits entry, whose fields include some outside every
// element.
func TestListExclusionMatchesXPathPatterns(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 20, defaultStyle())
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{AnnotateAllMentions: true})
	for _, p := range pages[:5] {
		for _, e := range malformedEdits {
			pages = append(pages, PreparePage(p.ID+"/"+e.name, e.fn(p.HTML)))
		}
	}
	perPage := map[int][]Annotation{}
	for _, a := range res.Annotations {
		perPage[a.PageIdx] = append(perPage[a.PageIdx], a)
	}
	for pi, p := range pages {
		for fi := 0; fi+3 < len(p.Fields); fi += 2 {
			pred := fmt.Sprintf("pair%d", fi)
			perPage[pi] = append(perPage[pi], Annotation{PageIdx: pi, FieldIdx: fi, Predicate: pred}, Annotation{PageIdx: pi, FieldIdx: fi + 3, Predicate: pred})
		}
	}
	excludedSome := false
	for pi, anns := range perPage {
		p := pages[pi]
		want := make([]bool, len(p.Fields))
		byPred := map[string][]xpath.Path{}
		for _, a := range anns {
			byPred[a.Predicate] = append(byPred[a.Predicate], xpath.MustParse(p.Fields[a.FieldIdx].PathString))
		}
		for _, paths := range byPred {
			if len(paths) < 2 {
				continue
			}
			pattern, ok := xpath.Generalize(paths)
			if !ok || len(pattern.Wildcards()) == 0 {
				continue
			}
			for fi, f := range p.Fields {
				if pattern.Matches(xpath.MustParse(f.PathString)) {
					want[fi] = true
				}
			}
		}
		got := make([]bool, len(p.Fields))
		listSiblingExclusions(got, streamPage(p), anns)
		for fi := range want {
			if got[fi] != want[fi] {
				t.Errorf("page %d field %d (%s): excluded %v, xpath patterns say %v", pi, fi, p.Fields[fi].PathString, got[fi], want[fi])
			}
			excludedSome = excludedSome || want[fi]
		}
	}
	if !excludedSome {
		t.Fatal("no field excluded: the test exercises nothing")
	}
}
