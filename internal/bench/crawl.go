package bench

import (
	"context"
	"fmt"
	"sort"

	"ceres/internal/core"
	"ceres/internal/eval"
	"ceres/internal/strmatch"
	"ceres/internal/websim"
)

// crawlRun executes the full pipeline over every CommonCrawl-analogue
// site and pools the scored extractions with per-site accounting.
type crawlRun struct {
	crawl *websim.Crawl
	sites []crawlSiteRun
}

type crawlSiteRun struct {
	spec           websim.CrawlSiteSpec
	pages          int
	annotatedPages int
	annotations    int
	// extractions at any confidence, with correctness.
	facts []scoredCrawlFact
	// topicName per page for subject checking.
}

type scoredCrawlFact struct {
	fact       eval.ScoredFact
	correct    bool
	newEntity  bool
	topicOK    bool
	subjectKey string
}

// runCrawl executes the pipeline on every site. Extraction correctness
// follows the paper's CommonCrawl protocol: a triple is correct if the
// page it came from asserts it (subject = page topic, (predicate, value)
// in the page's gold facts).
func runCrawl(ctx context.Context, cfg Config) *crawlRun {
	c := websim.GenerateCrawl(websim.CrawlConfig{Seed: cfg.Seed + 200, Scale: cfg.CrawlScale, MaxSitePages: cfg.CrawlMaxSite})
	run := &crawlRun{crawl: c}
	for i, site := range c.Sites {
		sr := crawlSiteRun{spec: c.Specs[i], pages: site.NumPages()}
		goldByPage := map[string]map[string]bool{}
		topicByPage := map[string]string{}
		topicIDByPage := map[string]string{}
		for _, p := range site.Pages {
			set := map[string]bool{}
			for _, f := range p.GoldValues() {
				set[f.Predicate+"\x00"+strmatch.Normalize(f.Value)] = true
			}
			goldByPage[p.ID] = set
			topicByPage[p.ID] = p.TopicName
			topicIDByPage[p.ID] = p.TopicID
		}
		// Train on the site, then serve the site's own pages.
		sm, err := core.TrainSite(ctx, sourcesOf(site.Pages), c.SeedKB, ceresConfig(cfg))
		var exts []core.Extraction
		if err == nil {
			sr.annotatedPages = sm.AnnotatedPages()
			sr.annotations = sm.Annotations()
			exts, err = serve(ctx, sm, site.Pages)
		}
		if err == nil {
			for _, e := range exts {
				gold := goldByPage[e.PageID]
				topicOK := strmatch.Normalize(e.Subject) == strmatch.Normalize(topicByPage[e.PageID])
				correct := topicOK && gold[e.Predicate+"\x00"+strmatch.Normalize(e.Value)]
				sr.facts = append(sr.facts, scoredCrawlFact{
					fact: eval.ScoredFact{
						Fact:       eval.Fact{Page: site.Name + "/" + e.PageID, Predicate: e.Predicate, Value: e.Value},
						Confidence: e.Confidence,
					},
					correct:   correct,
					newEntity: !c.InKB[topicIDByPage[e.PageID]],
				})
			}
		}
		run.sites = append(run.sites, sr)
	}
	return run
}

// Figure6 sweeps the extraction-confidence threshold over the pooled
// crawl extractions (paper Figure 6: precision vs number of extractions;
// 0.75 gave 1.25M extractions at 90% precision).
func Figure6(ctx context.Context, cfg Config) Report {
	run := runCrawl(ctx, cfg)
	var all []eval.ScoredFact
	correct := map[string]bool{}
	for _, sr := range run.sites {
		for _, f := range sr.facts {
			all = append(all, f.fact)
			if f.correct {
				correct[f.fact.Page+"\x00"+f.fact.Predicate+"\x00"+strmatch.Normalize(f.fact.Value)] = true
			}
		}
	}
	isCorrect := func(f eval.Fact) bool {
		return correct[f.Page+"\x00"+f.Predicate+"\x00"+strmatch.Normalize(f.Value)]
	}
	thresholds := []float64{0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95}
	pts := eval.ConfidenceSweep(all, isCorrect, thresholds)
	t := &table{header: []string{"Threshold", "#Extractions", "Precision"}}
	for _, p := range pts {
		t.add(fmt.Sprintf("%.2f", p.Threshold), fmt.Sprint(p.Extractions), f3(p.Precision))
	}
	return Report{Name: "Figure 6: precision vs #extractions at confidence thresholds (CommonCrawl analogue)", Text: t.String()}
}

// Table8 reports the per-site breakdown at threshold 0.5 (paper Table 8).
func Table8(ctx context.Context, cfg Config) Report {
	run := runCrawl(ctx, cfg)
	t := &table{header: []string{
		"Website", "Focus", "#Pages", "#AnnPages", "#Ann", "#Ext",
		"Ext/AnnPages", "Ext/Ann", "Precision",
	}}
	var totPages, totAnnPages, totAnn, totExt, totCorrect int
	for _, sr := range run.sites {
		ext, corr := 0, 0
		for _, f := range sr.facts {
			if f.fact.Confidence >= cfg.Threshold {
				ext++
				if f.correct {
					corr++
				}
			}
		}
		prec := "NA"
		if ext > 0 {
			prec = f3(float64(corr) / float64(ext))
		}
		ratioPages, ratioAnn := "0.00", "0.00"
		if sr.annotatedPages > 0 {
			ratioPages = fmt.Sprintf("%.2f", float64(ext)/float64(sr.annotatedPages))
		}
		if sr.annotations > 0 {
			ratioAnn = fmt.Sprintf("%.2f", float64(ext)/float64(sr.annotations))
		}
		t.add(sr.spec.Name, sr.spec.Focus, fmt.Sprint(sr.pages), fmt.Sprint(sr.annotatedPages),
			fmt.Sprint(sr.annotations), fmt.Sprint(ext), ratioPages, ratioAnn, prec)
		totPages += sr.pages
		totAnnPages += sr.annotatedPages
		totAnn += sr.annotations
		totExt += ext
		totCorrect += corr
	}
	totPrec := "NA"
	if totExt > 0 {
		totPrec = f3(float64(totCorrect) / float64(totExt))
	}
	t.add("TOTAL", "-", fmt.Sprint(totPages), fmt.Sprint(totAnnPages), fmt.Sprint(totAnn),
		fmt.Sprint(totExt), "-", "-", totPrec)
	return Report{Name: "Table 8: per-site breakdown on the CommonCrawl analogue @0.5 (paper total: 83% precision)", Text: t.String()}
}

// Table9 reports the ten most-extracted predicates (paper Table 9).
func Table9(ctx context.Context, cfg Config) Report {
	run := runCrawl(ctx, cfg)
	type agg struct{ ann, ext, corr int }
	per := map[string]*agg{}
	var totAnn, totExt, totCorr int
	for _, sr := range run.sites {
		for _, f := range sr.facts {
			if f.fact.Confidence < cfg.Threshold {
				continue
			}
			a := per[f.fact.Predicate]
			if a == nil {
				a = &agg{}
				per[f.fact.Predicate] = a
			}
			a.ext++
			totExt++
			if f.correct {
				a.corr++
				totCorr++
			}
		}
		totAnn += sr.annotations
	}
	preds := sortedMapKeys(per)
	sort.Slice(preds, func(i, j int) bool {
		if per[preds[i]].ext != per[preds[j]].ext {
			return per[preds[i]].ext > per[preds[j]].ext
		}
		return preds[i] < preds[j]
	})
	if len(preds) > 10 {
		preds = preds[:10]
	}
	t := &table{header: []string{"Predicate", "#Extractions", "Precision"}}
	for _, p := range preds {
		a := per[p]
		t.add(p, fmt.Sprint(a.ext), f3(float64(a.corr)/float64(a.ext)))
	}
	if totExt > 0 {
		t.add("All Predicates", fmt.Sprint(totExt), f3(float64(totCorr)/float64(totExt)))
	}
	return Report{Name: "Table 9: most-extracted predicates on the CommonCrawl analogue @0.5", Text: t.String()}
}
