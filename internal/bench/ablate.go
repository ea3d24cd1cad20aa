package bench

import (
	"context"
	"fmt"

	"ceres/internal/core"
	"ceres/internal/eval"
	"ceres/internal/mlr"
	"ceres/internal/websim"
)

// Ablate measures the design choices DESIGN.md §4 calls out, on one SWDE
// movie site: each variant flips a single knob against the CERES-Full
// default and reports page-level extraction quality.
func Ablate(ctx context.Context, cfg Config) Report {
	s := websim.GenerateSWDE(websim.SWDEConfig{Seed: cfg.Seed, PagesPerSite: cfg.SWDEPagesPerSite})
	v := s.Verticals["Movie"]
	K := s.SeedKBs["Movie"]
	evalPreds := ceresEvalPredicates("Movie", K)
	site := v.Sites[0]
	train, evalSet := splitHalves(site.Pages)
	gold := goldFactsOf(evalSet, evalPreds)

	variants := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"CERES-Full (reference)", func(c *core.Config) {}},
		{"- relation annotation (CERES-Topic)", func(c *core.Config) { c.Relation.AnnotateAllMentions = true }},
		{"- global XPath clustering", func(c *core.Config) { c.Relation.DisableClustering = true }},
		{"- list-aware negative sampling", func(c *core.Config) { c.Train.DisableListExclusion = true }},
		{"- text features", func(c *core.Config) { c.Features.DisableText = true }},
		{"- structural features", func(c *core.Config) { c.Features.DisableStructural = true }},
		{"classifier = naive Bayes", func(c *core.Config) { c.Train.Classifier = "nb" }},
		{"optimizer = SGD", func(c *core.Config) { c.Train.Model = mlr.TrainOptions{Optimizer: "sgd"} }},
		{"negative ratio r=1", func(c *core.Config) { c.Train.NegativeRatio = 1 }},
		{"negative ratio r=5", func(c *core.Config) { c.Train.NegativeRatio = 5 }},
		{"negative ratio r=10", func(c *core.Config) { c.Train.NegativeRatio = 10 }},
	}
	t := &table{header: []string{"Variant", "P", "R", "F1", "#Extractions@0.5"}}
	for _, va := range variants {
		c := ceresConfig(cfg)
		va.mod(&c)
		facts, err := runTrainExtract(ctx, train, evalSet, K, c)
		if err != nil {
			t.add(va.name, "err", "err", "err", "0")
			continue
		}
		kept := filterFacts(eval.Threshold(facts, cfg.Threshold), evalPreds)
		prf := eval.Score(kept, gold)
		t.add(va.name, f3(prf.P), f3(prf.R), f3(prf.F1), fmt.Sprint(len(kept)))
	}
	return Report{Name: "Ablations: single-knob variants of CERES-Full on one SWDE movie site", Text: t.String()}
}
