package vertex

import (
	"reflect"
	"testing"

	"ceres/internal/core"
	"ceres/internal/eval"
	"ceres/internal/websim"
)

// buildSite renders a movie site and returns prepared pages plus gold.
func buildSite(t *testing.T, n int, style websim.MovieSiteStyle) ([]*core.Page, []*websim.Page) {
	t.Helper()
	w := websim.NewWorld(websim.WorldConfig{Films: 120, People: 160, Seed: 19})
	site := websim.BuildMovieSite(w, w.Films[:n], style, "vertexsite", 4)
	var pages []*core.Page
	for _, wp := range site.Pages {
		pages = append(pages, core.PreparePage(wp.ID, wp.HTML))
	}
	return pages, site.Pages
}

func trainingPages(pages []*core.Page, gold []*websim.Page, k int) []TrainingPage {
	var out []TrainingPage
	for i := 0; i < k && i < len(pages); i++ {
		var facts []GoldFact
		for _, f := range gold[i].Facts {
			facts = append(facts, GoldFact{Predicate: f.Predicate, Value: f.Value, NodePath: f.NodePath})
		}
		out = append(out, TrainingPage{Page: pages[i], Labels: LabelsFromGold(facts)})
	}
	return out
}

func goldEvalFacts(gold []*websim.Page, skip int) []eval.Fact {
	var out []eval.Fact
	for _, p := range gold[skip:] {
		for _, f := range p.GoldValues() {
			if f.Predicate == "name" {
				continue
			}
			out = append(out, eval.Fact{Page: p.ID, Predicate: f.Predicate, Value: f.Value})
		}
	}
	return out
}

func TestVertexLearnsWrapper(t *testing.T) {
	style := websim.MovieSiteStyle{Layout: "table", Prefix: "vx", Language: "en", Recommendations: true}
	pages, gold := buildSite(t, 40, style)
	// Two annotated pages, as the paper gave Vertex++.
	ex := Learn(trainingPages(pages, gold, 2))
	if len(ex.Rules) == 0 {
		t.Fatal("no rules learned")
	}
	var facts []eval.Fact
	for _, p := range pages[2:] {
		for _, e := range ex.Extract(p) {
			facts = append(facts, eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value})
		}
	}
	prf := eval.Score(facts, goldEvalFacts(gold, 2))
	t.Logf("vertex table layout: P=%.3f R=%.3f F1=%.3f", prf.P, prf.R, prf.F1)
	if prf.P < 0.9 {
		t.Errorf("wrapper precision %.3f below 0.9", prf.P)
	}
	if prf.R < 0.75 {
		t.Errorf("wrapper recall %.3f below 0.75", prf.R)
	}
}

func TestVertexAcrossLayouts(t *testing.T) {
	for _, layout := range []string{"dl", "div"} {
		style := websim.MovieSiteStyle{Layout: layout, Prefix: "vx", Language: "en"}
		pages, gold := buildSite(t, 25, style)
		ex := Learn(trainingPages(pages, gold, 2))
		var facts []eval.Fact
		for _, p := range pages[2:] {
			for _, e := range ex.Extract(p) {
				facts = append(facts, eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value})
			}
		}
		prf := eval.Score(facts, goldEvalFacts(gold, 2))
		t.Logf("vertex %s layout: P=%.3f R=%.3f F1=%.3f", layout, prf.P, prf.R, prf.F1)
		if prf.F1 < 0.7 {
			t.Errorf("layout %s: wrapper F1 %.3f below 0.7", layout, prf.F1)
		}
	}
}

func TestVertexSubjectFromNameRule(t *testing.T) {
	style := websim.MovieSiteStyle{Layout: "table", Prefix: "vx", Language: "en"}
	pages, gold := buildSite(t, 10, style)
	ex := Learn(trainingPages(pages, gold, 2))
	for i, p := range pages[2:] {
		exts := ex.Extract(p)
		if len(exts) == 0 {
			continue
		}
		want := gold[i+2].TopicName
		for _, e := range exts {
			if e.Subject != want {
				t.Fatalf("page %s: subject %q, want %q", p.ID, e.Subject, want)
			}
		}
	}
}

func TestVertexNoTrainingData(t *testing.T) {
	ex := Learn(nil)
	if len(ex.Rules) != 0 {
		t.Errorf("rules from nothing: %v", ex.Rules)
	}
	p := core.PreparePage("x", "<html><body><h1>T</h1></body></html>")
	if got := ex.Extract(p); got != nil {
		t.Errorf("extraction without rules: %v", got)
	}
}

func TestAnchorDisambiguation(t *testing.T) {
	// With shuffled field order the row index stops identifying the
	// predicate; rules must fall back to anchor text.
	style := websim.MovieSiteStyle{Layout: "table", Prefix: "vx", Language: "en", ShuffleFields: true}
	pages, gold := buildSite(t, 30, style)
	ex := Learn(trainingPages(pages, gold, 4))
	anchored := 0
	for _, r := range ex.Rules {
		if r.Anchor != "" {
			anchored++
		}
	}
	if anchored == 0 {
		t.Errorf("shuffled fields should force anchored rules")
	}
	var facts []eval.Fact
	for _, p := range pages[4:] {
		for _, e := range ex.Extract(p) {
			facts = append(facts, eval.Fact{Page: e.PageID, Predicate: e.Predicate, Value: e.Value})
		}
	}
	prf := eval.Score(facts, goldEvalFacts(gold, 4))
	t.Logf("vertex shuffled: P=%.3f R=%.3f F1=%.3f", prf.P, prf.R, prf.F1)
	if prf.P < 0.65 {
		t.Errorf("anchored wrapper precision %.3f collapsed", prf.P)
	}
}

// overMatchPage is one annotated page of an overMatchCases entry: a
// movie detail page whose info block is info and whose heading block is
// head, with labels naming fields by XPath.
func overMatchPage(id, head, info string, labels map[string][]string) TrainingPage {
	html := "<html><body>" + head + `<div class="info"><h3>Genre</h3>` + info + "</div></body></html>"
	return TrainingPage{Page: core.PreparePage(id, html), Labels: labels}
}

const (
	namePath  = "/html[1]/body[1]/h1[1]/text()[1]"
	genrePath = "/html[1]/body[1]/div[1]/p[1]/text()["
)

// overMatchCases reach Learn's over-match branch: a predicate whose values
// sit in no positional list (or the topic name, which is never addressed
// by list position) and whose pattern has an anchor to fall back on. Each
// puts a comment among the text nodes its pattern fits; wantAnchor says
// whether the pattern fits an unannotated node, so the rule is anchored.
var overMatchCases = []struct {
	name       string
	pages      []TrainingPage
	pred       string
	wantAnchor string
}{
	{"whitespace-only text node between values", []TrainingPage{
		overMatchPage("a", "<h1>Film A</h1>", "<p>Drama<br> <br>Comedy<!-- more --></p>",
			map[string][]string{"name": {namePath}, "genre": {genrePath + "1]", genrePath + "3]"}}),
	}, "genre", "Genre"},
	{"unannotated value after a comment", []TrainingPage{
		overMatchPage("a", "<h1>Film A</h1>", "<p>Drama<br>Comedy<!-- more -->Musical</p>",
			map[string][]string{"name": {namePath}, "genre": {genrePath + "1]", genrePath + "3]"}}),
	}, "genre", "Genre"},
	{"every fitting node annotated", []TrainingPage{
		overMatchPage("a", "<h1>Film A</h1>", "<p>Drama<!-- more --><br>Comedy</p>",
			map[string][]string{"name": {namePath}, "genre": {genrePath + "1]", genrePath + "2]"}}),
	}, "genre", ""},
	{"whitespace-only text node at an annotated path", []TrainingPage{
		overMatchPage("a", `<span class="kicker">Movie</span><h1>Film A</h1>`, "<p>Drama</p>",
			map[string][]string{"name": {namePath}, "genre": {genrePath + "1]"}}),
		overMatchPage("b", `<span class="kicker">Movie</span><h1> <!-- untitled --> </h1>`, "<p>Comedy</p>",
			map[string][]string{"genre": {genrePath + "1]"}}),
	}, "name", ""},
	{"whitespace-only text node under a wildcard step", []TrainingPage{
		overMatchPage("a", `<div><span>Title</span><h1>Film A</h1></div><div><span>Title</span><h1><!-- none --></h1></div><div><span>Title</span><h1> </h1></div>`, "<p>Drama</p>",
			map[string][]string{"name": {"/html[1]/body[1]/div[1]/h1[1]/text()[1]"}}),
		overMatchPage("b", `<div><span>Title</span><h1><!-- none --></h1></div><div><span>Title</span><h1>Film B</h1></div>`, "<p>Comedy</p>",
			map[string][]string{"name": {"/html[1]/body[1]/div[2]/h1[1]/text()[1]"}}),
	}, "name", "Title"},
}

// TestOverMatchAnchorsRule drives the over-match branch: the rule for the
// case's predicate is anchored exactly when its pattern fits a text node
// of a training page that no label names — a field or one that holds only
// whitespace.
func TestOverMatchAnchorsRule(t *testing.T) {
	for _, tc := range overMatchCases {
		t.Run(tc.name, func(t *testing.T) {
			ex := Learn(tc.pages)
			found := false
			for _, r := range ex.Rules {
				if r.Predicate != tc.pred {
					continue
				}
				found = true
				if r.Anchor != tc.wantAnchor {
					t.Errorf("rule %v: anchor %q, want %q", r.Pattern, r.Anchor, tc.wantAnchor)
				}
			}
			if !found {
				t.Fatalf("no %s rule in %v", tc.pred, ex.Rules)
			}
		})
	}
}

// diffTree holds Learn and Extract to the frozen tree reference
// (reference_test.go): equal rules learned from pages, and equal
// extractions on every page of eval.
func diffTree(t *testing.T, pages []TrainingPage, eval []*core.Page) {
	t.Helper()
	got, want := Learn(pages), treeLearn(pages)
	if !reflect.DeepEqual(got.Rules, want.Rules) {
		t.Fatalf("rules:\n%v\ntree reference:\n%v", got.Rules, want.Rules)
	}
	for _, p := range eval {
		if g, w := got.Extract(p), treeExtract(want, p); !reflect.DeepEqual(g, w) {
			t.Fatalf("page %s: extractions\n%v\ntree reference:\n%v", p.ID, g, w)
		}
	}
}

// TestVertexMatchesTree holds the stream-pass VERTEX++ to the tree
// reference on the over-match cases and on every site of the four
// websim SWDE verticals, trained on two pages as Table 3 does and on
// four, and extracting from every page of the site.
func TestVertexMatchesTree(t *testing.T) {
	for _, tc := range overMatchCases {
		var eval []*core.Page
		for _, tp := range tc.pages {
			eval = append(eval, tp.Page)
		}
		diffTree(t, tc.pages, eval)
	}
	swde := websim.GenerateSWDE(websim.SWDEConfig{Seed: 5, PagesPerSite: map[string]int{
		"Movie": 12, "NBAPlayer": 12, "University": 12, "Book": 12,
	}})
	sites := 0
	for _, v := range swde.Verticals {
		for _, site := range v.Sites {
			var pages []*core.Page
			for _, wp := range site.Pages {
				pages = append(pages, core.PreparePage(wp.ID, wp.HTML))
			}
			for _, k := range []int{2, 4} {
				diffTree(t, trainingPages(pages, site.Pages, k), pages)
			}
			sites++
		}
	}
	if sites < 4 {
		t.Fatalf("only %d SWDE sites", sites)
	}
}
