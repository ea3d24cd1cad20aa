package core

import (
	"testing"

	"ceres/internal/eval"
)

func TestBaselineTrainsAndExtracts(t *testing.T) {
	pages, K, _, gold := buildMovieSite(t, 30, defaultStyle())
	m, err := TrainBaseline(pages, K, BaselineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no pairwise positives found")
	}
	var facts []eval.Fact
	for _, p := range pages {
		for _, e := range ExtractBaseline(p, K, m) {
			facts = append(facts, eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value})
		}
	}
	if len(facts) == 0 {
		t.Fatal("baseline produced no extractions")
	}
	// The baseline's subject is just "the first node's text": many pairs
	// have wrong subjects, and its page-level fact quality must trail the
	// full pipeline's (Table 3's CERES-Baseline << CERES-Full).
	prf := eval.Score(facts, goldFacts(gold))
	t.Logf("baseline: P=%.3f R=%.3f F1=%.3f (%d extractions)", prf.P, prf.R, prf.F1, len(facts))

	sources := make([]PageSource, len(gold))
	for i, g := range gold {
		sources[i] = PageSource{ID: g.ID, HTML: g.HTML}
	}
	_, full := trainExtract(t, sources, K)
	fullPRF := eval.Score(extractionFacts(full, 0.5), goldFacts(gold))
	if fullPRF.F1 <= prf.F1 {
		t.Errorf("CERES-Full F1 %.3f should beat CERES-Baseline F1 %.3f", fullPRF.F1, prf.F1)
	}
}

func TestBaselineDisjointKB(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 8, defaultStyle())
	// A KB whose entities never appear on the pages yields no positives.
	empty, err := TrainBaseline(pages[:2], emptyKB(), BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if empty != nil {
		t.Errorf("baseline should return nil model with no positives")
	}
	if got := ExtractBaseline(pages[0], emptyKB(), nil); got != nil {
		t.Errorf("nil model should extract nothing")
	}
}

func TestBaselineCapsRespected(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 10, defaultStyle())
	m, err := TrainBaseline(pages, K, BaselineOptions{MaxFieldsPerPage: 10, MaxPairsPerPage: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Skip("caps too tight to find positives on this seed")
	}
	exts := ExtractBaseline(pages[0], K, m)
	if len(exts) > 20 {
		t.Errorf("pair cap violated: %d extractions from one page", len(exts))
	}
}
