package bench

import (
	"context"
	"errors"
	"testing"

	"ceres/internal/websim"
)

// Regression tests for the cancellation plumbing: experiments used to
// manufacture context.Background() internally, so ceres-bench runs
// could not be interrupted. The context now threads from Experiment.Run
// through core.TrainSite and SiteModel.ExtractSources to their worker
// pools.

func TestRunTrainExtractCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	cfg := QuickConfig()
	s := websim.GenerateSWDE(websim.SWDEConfig{Seed: cfg.Seed, PagesPerSite: cfg.SWDEPagesPerSite})
	site := s.Verticals["Movie"].Sites[0]
	train, evalSet := splitHalves(site.Pages)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runTrainExtract(ctx, train, evalSet, s.SeedKBs["Movie"], ceresConfig(cfg))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runTrainExtract under a cancelled context: want context.Canceled, got %v", err)
	}
}

func TestRunCrawlCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("crawl generation in -short mode")
	}
	cfg := QuickConfig()
	cfg.CrawlScale = 1.0 / 2000.0
	cfg.CrawlMaxSite = 8

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := runCrawl(ctx, cfg)
	for _, sr := range run.sites {
		if sr.annotatedPages != 0 || len(sr.facts) != 0 {
			t.Fatalf("site %s: pipeline produced results under a cancelled context", sr.spec.Name)
		}
	}
}
