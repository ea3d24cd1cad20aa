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
// evaluation half, returning scored extraction facts (including the name
// pseudo-fact per page with an identified subject).
func runTrainExtract(ctx context.Context, train, evalSet []*websim.Page, K *kb.KB, cfg core.Config) ([]eval.ScoredFact, *core.Result, error) {
	res, err := core.Run(ctx, sourcesOf(train), K, cfg)
	if err != nil {
		return nil, nil, err
	}
	evalPages, err := core.ParsePages(ctx, sourcesOf(evalSet), 0)
	if err != nil {
		return nil, nil, err
	}
	var facts []eval.ScoredFact
	// Reuse each trained cluster model on the evaluation pages whose
	// template matches; with single-template sites all models apply — we
	// run every model and keep the best-confidence duplicate.
	for _, cl := range res.Clusters {
		if !cl.Trained {
			continue
		}
		for _, p := range evalPages {
			exts := core.ExtractPage(p, cl.Model, cfg.Extract)
			for _, e := range exts {
				facts = append(facts, eval.ScoredFact{
					Fact:       eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value},
					Confidence: e.Confidence,
				})
			}
			// Name pseudo-fact from the identified subject.
			if len(exts) > 0 {
				facts = append(facts, eval.ScoredFact{
					Fact:       eval.Fact{Page: p.ID, Predicate: core.NameClass, Value: exts[0].Subject},
					Confidence: 1,
				})
			}
		}
	}
	return facts, res, nil
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
