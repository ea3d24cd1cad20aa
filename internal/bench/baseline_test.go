package bench

import (
	"context"
	"testing"

	"ceres/internal/core"
	"ceres/internal/eval"
	"ceres/internal/kb"
	"ceres/internal/websim"
)

// movieSite returns the first site of the quick-scale SWDE Movie vertical,
// split into training and evaluation halves, and the vertical's seed KB.
func movieSite(t *testing.T) (train, evalSet []*websim.Page, K *kb.KB) {
	t.Helper()
	s := websim.GenerateSWDE(websim.SWDEConfig{Seed: 1, PagesPerSite: QuickConfig().SWDEPagesPerSite})
	train, evalSet = splitHalves(s.Verticals["Movie"].Sites[0].Pages)
	return train, evalSet, s.SeedKBs["Movie"]
}

// TestBaselineTrainsAndExtracts trains CERES-Baseline on one SWDE site and
// requires extractions whose page-hit F1 trails CERES-Full's on the same
// split (Table 3's CERES-Baseline << CERES-Full): the baseline's subject
// is just the first node's text.
func TestBaselineTrainsAndExtracts(t *testing.T) {
	ctx := context.Background()
	train, evalSet, K := movieSite(t)
	pages, err := core.ParsePages(ctx, sourcesOf(train), 0)
	if err != nil {
		t.Fatal(err)
	}
	ix := K.BuildIndex()
	m, err := TrainBaseline(pages, ix, BaselineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no pairwise positives found")
	}
	var facts []eval.ScoredFact
	for _, wp := range evalSet {
		for _, e := range ExtractBaseline(core.PreparePage(wp.ID, wp.HTML), ix, m) {
			facts = append(facts, eval.ScoredFact{Fact: eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value}, Confidence: 1})
		}
	}
	if len(facts) == 0 {
		t.Fatal("baseline produced no extractions")
	}
	evalPreds := ceresEvalPredicates("Movie", K)
	gold := goldFactsOf(evalSet, evalPreds)
	base := eval.PageHitScore(eval.TopPrediction(facts), gold).F1

	full, err := runTrainExtract(ctx, train, evalSet, K, ceresConfig(QuickConfig()))
	if err != nil {
		t.Fatal(err)
	}
	fullF1 := eval.PageHitScore(filterFacts(eval.TopPrediction(thresholdScored(full, 0.5)), evalPreds), gold).F1
	t.Logf("page-hit F1: CERES-Baseline %.3f (%d extractions), CERES-Full %.3f", base, len(facts), fullF1)
	if base == 0 || fullF1 <= base {
		t.Errorf("want 0 < CERES-Baseline F1 %.3f < CERES-Full F1 %.3f", base, fullF1)
	}
}

func TestBaselineDisjointKB(t *testing.T) {
	train, _, K := movieSite(t)
	pages, err := core.ParsePages(context.Background(), sourcesOf(train[:2]), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A KB whose entities never appear on the pages yields no positives.
	empty := kb.New(K.Ontology()).BuildIndex()
	m, err := TrainBaseline(pages, empty, BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		t.Errorf("baseline should return nil model with no positives")
	}
	if got := ExtractBaseline(pages[0], empty, nil); got != nil {
		t.Errorf("nil model should extract nothing")
	}
}

func TestBaselineCapsRespected(t *testing.T) {
	train, _, K := movieSite(t)
	pages, err := core.ParsePages(context.Background(), sourcesOf(train), 0)
	if err != nil {
		t.Fatal(err)
	}
	ix := K.BuildIndex()
	m, err := TrainBaseline(pages, ix, BaselineOptions{MaxFieldsPerPage: 10, MaxPairsPerPage: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("caps too tight to find positives")
	}
	if exts := ExtractBaseline(pages[0], ix, m); len(exts) > 20 {
		t.Errorf("pair cap violated: %d extractions from one page", len(exts))
	}
}
