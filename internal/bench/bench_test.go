package bench

import (
	"context"
	"strings"
	"testing"

	"ceres/internal/core"
	"ceres/internal/eval"
	"ceres/internal/websim"
)

func TestTableFormatting(t *testing.T) {
	tb := &table{header: []string{"A", "LongHeader", "C"}}
	tb.add("x", "y", "z")
	tb.add("longer-cell", "s", "t")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	// Column alignment: every line has the separator's width or more.
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
}

func TestSplitHalves(t *testing.T) {
	pages := []*websim.Page{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}, {ID: "e"}}
	train, evalSet := splitHalves(pages)
	if len(train) != 3 || len(evalSet) != 2 {
		t.Fatalf("split sizes %d/%d", len(train), len(evalSet))
	}
	if train[0].ID != "a" || evalSet[0].ID != "b" {
		t.Errorf("interleaving broken")
	}
}

func TestFilterAndGoldFacts(t *testing.T) {
	pages := []*websim.Page{{
		ID: "p",
		Facts: []websim.PageFact{
			{Predicate: "x", Value: "1", NodePath: "/a[1]"},
			{Predicate: "y", Value: "2", NodePath: "/b[1]"},
			{Predicate: "x", Value: "1", NodePath: "/c[1]"}, // duplicate value
		},
	}}
	all := goldFactsOf(pages, nil)
	if len(all) != 2 {
		t.Fatalf("gold dedup failed: %v", all)
	}
	only := goldFactsOf(pages, []string{"x"})
	if len(only) != 1 || only[0].Predicate != "x" {
		t.Errorf("predicate filter failed: %v", only)
	}
	if got := filterFacts(all, []string{"y"}); len(got) != 1 {
		t.Errorf("filterFacts: %v", got)
	}
}

func TestCapAnnotatedPages(t *testing.T) {
	ann := &core.AnnotationResult{
		AnnotatedPages: []bool{true, false, true, true},
		Annotations: []core.Annotation{
			{PageIdx: 0, Predicate: "p"},
			{PageIdx: 2, Predicate: "p"},
			{PageIdx: 3, Predicate: "p"},
		},
	}
	capped := capAnnotatedPages(ann, 2)
	if capped.NumAnnotatedPages() != 2 {
		t.Fatalf("cap not respected: %d", capped.NumAnnotatedPages())
	}
	if len(capped.Annotations) != 2 {
		t.Errorf("annotations not filtered: %d", len(capped.Annotations))
	}
	for _, a := range capped.Annotations {
		if a.PageIdx == 3 {
			t.Errorf("annotation from uncapped page kept")
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact is present.
	for _, id := range []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "table9", "figure4", "figure5", "figure6", "ablate",
	} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, ok := Lookup("table99"); ok {
		t.Errorf("bogus lookup succeeded")
	}
	if len(IDs()) != len(Experiments) {
		t.Errorf("IDs() incomplete")
	}
}

func TestMean(t *testing.T) {
	if mean(nil) != 0 {
		t.Errorf("mean of nothing")
	}
	if got := mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestShortPred(t *testing.T) {
	if shortPred("film.wasDirectedBy.person") != "wasDirectedBy" {
		t.Errorf("shortPred 3-part")
	}
	if shortPred("name") != "title/name" {
		t.Errorf("shortPred name")
	}
	if shortPred("odd") != "odd" {
		t.Errorf("shortPred passthrough")
	}
}

// TestFigure6MonotonePrecision verifies the headline property of the
// confidence sweep on a small crawl: precision must not decrease as the
// threshold rises.
func TestFigure6MonotonePrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("crawl generation in -short mode")
	}
	cfg := QuickConfig()
	cfg.CrawlScale = 1.0 / 2000.0
	cfg.CrawlMaxSite = 16
	run := runCrawl(context.Background(), cfg)
	var all []eval.ScoredFact
	correctSet := map[string]bool{}
	for _, sr := range run.sites {
		for _, f := range sr.facts {
			all = append(all, f.fact)
			if f.correct {
				correctSet[f.fact.Page+"|"+f.fact.Predicate+"|"+f.fact.Value] = true
			}
		}
	}
	if len(all) == 0 {
		t.Skip("no extractions at this scale")
	}
	pts := eval.ConfidenceSweep(all, func(f eval.Fact) bool {
		return correctSet[f.Page+"|"+f.Predicate+"|"+f.Value]
	}, []float64{0.5, 0.7, 0.9})
	for i := 1; i < len(pts); i++ {
		if pts[i].Precision+1e-9 < pts[i-1].Precision {
			t.Errorf("precision dropped as threshold rose: %+v", pts)
		}
		if pts[i].Extractions > pts[i-1].Extractions {
			t.Errorf("volume rose as threshold rose: %+v", pts)
		}
	}
}
