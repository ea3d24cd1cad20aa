package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"ceres/internal/eval"
	"ceres/internal/kb"
	"ceres/internal/websim"
)

// trainExtract trains a site model on sources and extracts the same pages
// through its serve engine. A model with no trained cluster extracts
// nothing.
func trainExtract(t *testing.T, sources []PageSource, K *kb.KB) (*SiteModel, []Extraction) {
	t.Helper()
	sm, err := TrainSite(context.Background(), sources, K, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sm.TrainedClusters() == 0 {
		return sm, nil
	}
	exts, err := sm.ExtractSources(context.Background(), sources)
	if err != nil {
		t.Fatal(err)
	}
	return sm, exts
}

// goldFacts converts a generated page's ground truth into eval facts,
// excluding the name predicate (extractions carry it as the subject).
func goldFacts(gold []*websim.Page) []eval.Fact {
	var out []eval.Fact
	for _, p := range gold {
		for _, f := range p.GoldValues() {
			if f.Predicate == "name" {
				continue
			}
			out = append(out, eval.Fact{Page: p.ID, Predicate: f.Predicate, Value: f.Value})
		}
	}
	return out
}

func extractionFacts(exts []Extraction, minConf float64) []eval.Fact {
	var out []eval.Fact
	for _, e := range exts {
		if e.Confidence < minConf {
			continue
		}
		out = append(out, eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value})
	}
	return out
}

func TestPipelineEndToEnd(t *testing.T) {
	pages, K, _, gold := buildMovieSite(t, 60, defaultStyle())
	sources := make([]PageSource, len(gold))
	for i, g := range gold {
		sources[i] = PageSource{ID: g.ID, HTML: g.HTML}
	}
	_ = pages
	sm, exts := trainExtract(t, sources, K)
	if sm.AnnotatedPages() < 45 {
		t.Fatalf("annotated %d/60 pages", sm.AnnotatedPages())
	}
	if len(exts) == 0 {
		t.Fatal("no extractions")
	}
	prf := eval.Score(extractionFacts(exts, 0.5), goldFacts(gold))
	t.Logf("end-to-end: P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		prf.P, prf.R, prf.F1, prf.TP, prf.FP, prf.FN)
	if prf.P < 0.85 {
		t.Errorf("extraction precision %.3f below 0.85", prf.P)
	}
	if prf.R < 0.6 {
		t.Errorf("extraction recall %.3f below 0.6", prf.R)
	}
	// Subjects must be the page topics.
	byID := map[string]*websim.Page{}
	for _, g := range gold {
		byID[g.ID] = g
	}
	wrongSubject := 0
	for _, e := range exts {
		if e.Confidence >= 0.5 && byID[e.PageID] != nil && e.Subject != byID[e.PageID].TopicName {
			wrongSubject++
		}
	}
	if frac := float64(wrongSubject) / float64(len(exts)); frac > 0.05 {
		t.Errorf("%.1f%% of extractions have a wrong subject", 100*frac)
	}
}

func TestPipelineDiscoversNewEntities(t *testing.T) {
	// Films absent from the seed KB must still yield extractions once the
	// model is trained — the new-entity discovery the paper contrasts
	// against Knowledge Vault (§5.5).
	w := websim.NewWorld(websim.WorldConfig{Films: 160, People: 220, Seed: 33})
	style := defaultStyle()
	site := websim.BuildMovieSite(w, w.Films[:80], style, "halfsite", 5)
	// KB covers only the first 40 films rendered.
	covered := map[string]bool{}
	for i := 0; i < 40; i++ {
		covered[w.Films[i].ID] = true
	}
	trimmed := trimWorldFilms(w, 40)
	K := websim.BuildKB(trimmed, websim.FullCoverage(), 3)
	var sources []PageSource
	for _, p := range site.Pages {
		sources = append(sources, PageSource{ID: p.ID, HTML: p.HTML})
	}
	_, exts := trainExtract(t, sources, K)
	newEntityExtractions := 0
	for _, e := range exts {
		if e.Confidence < 0.5 {
			continue
		}
		if !covered[e.PageID] { // page IDs are film IDs here
			newEntityExtractions++
		}
	}
	if newEntityExtractions == 0 {
		t.Errorf("no extractions for entities outside the seed KB")
	}
	// And they should be mostly correct.
	var gold []eval.Fact
	var got []eval.Fact
	byID := map[string]*websim.Page{}
	for _, p := range site.Pages {
		byID[p.ID] = p
	}
	for _, e := range exts {
		if e.Confidence < 0.5 || covered[e.PageID] {
			continue
		}
		got = append(got, eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value})
	}
	for _, p := range site.Pages {
		if covered[p.ID] {
			continue
		}
		for _, f := range p.GoldValues() {
			if f.Predicate != "name" {
				gold = append(gold, eval.Fact{Page: p.ID, Predicate: f.Predicate, Value: f.Value})
			}
		}
	}
	prf := eval.Score(got, gold)
	t.Logf("new-entity extractions: %d, P=%.3f R=%.3f", newEntityExtractions, prf.P, prf.R)
	if prf.P < 0.8 {
		t.Errorf("new-entity precision %.3f below 0.8", prf.P)
	}
}

// trimWorldFilms builds a world view exposing only the first n films (for
// KB construction) — mirroring buildCrawlKB in websim.
func trimWorldFilms(w *websim.World, n int) *websim.World {
	return websim.TrimFilms(w, n)
}

func TestPipelineClustersTemplates(t *testing.T) {
	// A mixed site (film + person pages) must split into clusters.
	w := websim.NewWorld(websim.WorldConfig{Films: 120, People: 160, Seed: 44})
	films, people := websim.GenerateIMDB(w, websim.IMDBConfig{FilmPages: 30, PersonPages: 20, Seed: 2})
	var sources []PageSource
	for _, p := range films.Pages {
		sources = append(sources, PageSource{ID: "f/" + p.ID, HTML: p.HTML})
	}
	for _, p := range people.Pages {
		sources = append(sources, PageSource{ID: "p/" + p.ID, HTML: p.HTML})
	}
	K := websim.BuildKB(w, websim.FullCoverage(), 3)
	sm, _ := trainExtract(t, sources, K)
	if len(sm.Clusters) < 2 {
		t.Errorf("mixed-template site should split into >= 2 clusters, got %d", len(sm.Clusters))
	}
}

func TestPipelineNoAnnotatablePages(t *testing.T) {
	// A KB about a disjoint world yields no annotations, no model, no
	// extractions — the bcdb/bmxmdb behaviour of Table 8.
	w1 := websim.NewWorld(websim.WorldConfig{Films: 60, People: 80, Seed: 55})
	w2 := websim.NewWorld(websim.WorldConfig{Films: 60, People: 80, Seed: 56})
	site := websim.BuildMovieSite(w1, w1.Films[:20], defaultStyle(), "disjoint", 9)
	K := websim.BuildKB(w2, websim.FullCoverage(), 3)
	var sources []PageSource
	for _, p := range site.Pages {
		sources = append(sources, PageSource{ID: p.ID, HTML: p.HTML})
	}
	if _, exts := trainExtract(t, sources, K); len(exts) != 0 {
		t.Errorf("disjoint KB should yield no extractions, got %d", len(exts))
	}
}

// TestTrainSiteOnDeepPage trains on a movie site plus one page that nests
// <div> elements 100,000 deep around a single field — internal/dom's
// hostile "div nesting" page. Training reads pages through the stream
// pass, whose open-element stack is a slice, so the deep page costs time
// linear in its depth and no goroutine stack: TrainSite returns a trained
// model within the hostile pages' bound.
func TestTrainSiteOnDeepPage(t *testing.T) {
	const bound = 2 * time.Second // internal/dom's hostileBound
	_, K, _, gold := buildMovieSite(t, 20, defaultStyle())
	sources := []PageSource{{ID: "deep", HTML: strings.Repeat("<div>", 100_000) + "x"}}
	for _, g := range gold {
		sources = append(sources, PageSource{ID: g.ID, HTML: g.HTML})
	}
	start := time.Now()
	sm, err := TrainSite(context.Background(), sources, K, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > bound {
		t.Errorf("TrainSite took %v with a deep page, bound %v", d, bound)
	}
	if sm.TrainedClusters() == 0 {
		t.Error("no cluster trained beside the deep page")
	}
}
