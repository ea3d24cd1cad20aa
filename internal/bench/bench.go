// Package bench regenerates every table and figure of the paper's
// evaluation section (§5) over the synthetic corpora of
// ceres/internal/websim. Each experiment is a function returning a
// Report; cmd/ceres-bench prints them and bench_test.go wraps them in
// testing.B benchmarks.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ceres/internal/core"
	"ceres/internal/eval"
	"ceres/internal/kb"
	"ceres/internal/websim"
)

// Config scales the experiments.
type Config struct {
	Seed int64
	// Threshold is the extraction-confidence cutoff (the paper uses 0.5
	// everywhere except the Figure 6 sweep).
	Threshold float64
	// SWDEPagesPerSite overrides per-vertical site sizes (see websim).
	SWDEPagesPerSite map[string]int
	// IMDBFilmPages / IMDBPersonPages size the §5.4 corpus.
	IMDBFilmPages   int
	IMDBPersonPages int
	// CrawlScale multiplies the paper's per-site page counts (§5.5).
	CrawlScale   float64
	CrawlMaxSite int
}

// DefaultConfig is the scale cmd/ceres-bench runs at (roughly 1:10 SWDE,
// 1:20 IMDb, 1:75 CommonCrawl).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Threshold:       0.5,
		IMDBFilmPages:   400,
		IMDBPersonPages: 120,
		CrawlScale:      1.0 / 75.0,
		CrawlMaxSite:    400,
	}
}

// QuickConfig is a reduced scale for unit tests and -short runs.
func QuickConfig() Config {
	return Config{
		Seed:      1,
		Threshold: 0.5,
		SWDEPagesPerSite: map[string]int{
			"Movie": 30, "Book": 30, "NBAPlayer": 16, "University": 24,
		},
		IMDBFilmPages:   90,
		IMDBPersonPages: 40,
		CrawlScale:      1.0 / 900.0,
		CrawlMaxSite:    30,
	}
}

// Report is one regenerated table or figure.
type Report struct {
	Name string
	Text string
}

// ---------------------------------------------------------------- tables

// table renders rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.2f", v) }

// ---------------------------------------------------------------- shared running

// splitHalves returns the annotation/training half and evaluation half of
// a site's pages (the paper's SWDE/IMDb protocol: "We randomly selected
// half of the pages of each website to use for annotation and training
// and used the other half for evaluation"). The generator already orders
// pages randomly, so even/odd assignment is an unbiased split that keeps
// determinism.
func splitHalves(pages []*websim.Page) (train, evalSet []*websim.Page) {
	for i, p := range pages {
		if i%2 == 0 {
			train = append(train, p)
		} else {
			evalSet = append(evalSet, p)
		}
	}
	return train, evalSet
}

func sourcesOf(pages []*websim.Page) []core.PageSource {
	out := make([]core.PageSource, len(pages))
	for i, p := range pages {
		out[i] = core.PageSource{ID: p.ID, HTML: p.HTML}
	}
	return out
}

// runTrainExtract trains on the training half and extracts from the
// evaluation half through the serve engine, returning scored extraction
// facts plus, after each page's extractions, the page's name pseudo-fact
// (its identified subject). A site with no trainable cluster yields none.
func runTrainExtract(ctx context.Context, train, evalSet []*websim.Page, K *kb.KB, cfg core.Config) ([]eval.ScoredFact, error) {
	sm, err := core.TrainSite(ctx, sourcesOf(train), K.BuildIndex(), cfg)
	if err != nil {
		return nil, err
	}
	exts, err := serve(ctx, sm, evalSet)
	if err != nil {
		return nil, err
	}
	var facts []eval.ScoredFact
	for i, e := range exts {
		facts = append(facts, scoredOf(e))
		// Extractions come in page order: the last of a page's run closes it.
		if i == len(exts)-1 || exts[i+1].PageID != e.PageID {
			facts = append(facts, eval.ScoredFact{
				Fact:       eval.Fact{Page: e.PageID, Predicate: core.NameClass, Value: e.Subject},
				Confidence: 1,
			})
		}
	}
	return facts, nil
}

// serve extracts pages through a trained model's serve engine, routing
// each to its nearest template cluster, in page order and unthresholded.
// A model with no trained cluster yields nothing.
func serve(ctx context.Context, sm *core.SiteModel, pages []*websim.Page) ([]core.Extraction, error) {
	if sm.TrainedClusters() == 0 || len(pages) == 0 {
		return nil, nil
	}
	return sm.ExtractSources(ctx, sourcesOf(pages))
}

func scoredOf(e core.Extraction) eval.ScoredFact {
	return eval.ScoredFact{
		Fact:       eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value},
		Confidence: e.Confidence,
	}
}

// goldFactsOf converts generated gold into eval facts, keeping only the
// listed predicates (nil keeps everything). The name predicate maps to
// core.NameClass.
func goldFactsOf(pages []*websim.Page, preds []string) []eval.Fact {
	keep := map[string]bool{}
	for _, p := range preds {
		keep[p] = true
	}
	var out []eval.Fact
	for _, p := range pages {
		for _, f := range p.GoldValues() {
			if preds != nil && !keep[f.Predicate] {
				continue
			}
			out = append(out, eval.Fact{Page: p.ID, Predicate: f.Predicate, Value: f.Value})
		}
	}
	return out
}

func filterFacts(facts []eval.Fact, preds []string) []eval.Fact {
	keep := map[string]bool{}
	for _, p := range preds {
		keep[p] = true
	}
	var out []eval.Fact
	for _, f := range facts {
		if keep[f.Predicate] {
			out = append(out, f)
		}
	}
	return out
}

func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
