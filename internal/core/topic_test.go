package core

import (
	"context"
	"testing"

	"ceres/internal/kb"
	"ceres/internal/websim"
)

// buildMovieSite renders a small movie site plus its seed KB.
func buildMovieSite(t testing.TB, nPages int, style websim.MovieSiteStyle) ([]*Page, *kb.KB, *websim.World, []*websim.Page) {
	t.Helper()
	w := websim.NewWorld(websim.WorldConfig{Films: 150, People: 200, Series: 4, Episodes: 6, Seed: 21})
	K := websim.BuildKB(w, websim.FullCoverage(), 3)
	site := websim.BuildMovieSite(w, w.Films[:nPages], style, "testsite", 7)
	var sources []PageSource
	for _, wp := range site.Pages {
		sources = append(sources, PageSource{ID: wp.ID, HTML: wp.HTML})
	}
	pages, err := ParsePages(context.Background(), sources, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pages, K, w, site.Pages
}

// identifyTopics is IdentifyTopics at the pipeline's default worker count.
func identifyTopics(t *testing.T, pages []*Page, K *kb.KB, opts TopicOptions) []TopicResult {
	t.Helper()
	topics, err := IdentifyTopics(context.Background(), pages, K.BuildIndex(), opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topics
}

// annotate is Annotate at the pipeline's default worker count.
func annotate(t *testing.T, pages []*Page, K *kb.KB, topts TopicOptions, ropts RelationOptions) *AnnotationResult {
	t.Helper()
	res, err := Annotate(context.Background(), pages, K.BuildIndex(), topts, ropts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func defaultStyle() websim.MovieSiteStyle {
	return websim.MovieSiteStyle{Layout: "table", Prefix: "ts", Language: "en", Recommendations: true}
}

func TestIdentifyTopicsOnMovieSite(t *testing.T) {
	pages, K, _, gold := buildMovieSite(t, 30, defaultStyle())
	topics := identifyTopics(t, pages, K, TopicOptions{})
	correct, withTopic := 0, 0
	for i, tr := range topics {
		if tr.EntityID == "" {
			continue
		}
		withTopic++
		if tr.EntityID == gold[i].TopicID {
			correct++
		}
	}
	if withTopic < 25 {
		t.Errorf("topics identified on only %d/30 pages", withTopic)
	}
	if correct < withTopic*9/10 {
		t.Errorf("topic precision %d/%d below 90%%", correct, withTopic)
	}
	// The topic field must hold the film title.
	for i, tr := range topics {
		if tr.EntityID != gold[i].TopicID || tr.FieldIdx < 0 {
			continue
		}
		if pages[i].Fields[tr.FieldIdx].Text != gold[i].TopicName {
			t.Errorf("page %d: topic field %q, want %q", i, pages[i].Fields[tr.FieldIdx].Text, gold[i].TopicName)
		}
	}
}

func TestTopicUniquenessFilter(t *testing.T) {
	// A KB entity whose name appears on every page ("Help") must not
	// become the topic of many pages.
	pages, K, w, _ := buildMovieSite(t, 12, defaultStyle())
	// Inject a trap entity whose name matches the nav boilerplate "Movies"
	// present on every page, with rich enough objects to score.
	mustNil(t, K.AddEntity(kb.Entity{ID: "trap", Type: "film", Name: "Movies"}))
	for i := 0; i < 8; i++ {
		mustNil(t, K.AddTriple(kb.Triple{
			Subject: "trap", Predicate: websim.PredCastMember,
			Object: kb.EntityObject(w.People[i].ID),
		}))
	}
	topics := identifyTopics(t, pages, K, TopicOptions{MaxTopicPages: 5})
	trapCount := 0
	for _, tr := range topics {
		if tr.EntityID == "trap" {
			trapCount++
		}
	}
	if trapCount >= 5 {
		t.Errorf("uniqueness filter failed: trap topic on %d pages", trapCount)
	}
}

func TestTopicEmptyInputs(t *testing.T) {
	K := websim.BuildKB(websim.NewWorld(websim.WorldConfig{Films: 5, People: 10, Seed: 1}), websim.FullCoverage(), 1)
	if got := identifyTopics(t, nil, K, TopicOptions{}); len(got) != 0 {
		t.Errorf("no pages: %v", got)
	}
	p := PreparePage("empty", "<html><body></body></html>")
	topics := identifyTopics(t, []*Page{p}, K, TopicOptions{})
	if topics[0].EntityID != "" {
		t.Errorf("empty page should have no topic")
	}
}

func TestJaccardScore(t *testing.T) {
	a := map[string]bool{"x": true, "y": true, "z": true}
	b := map[string]bool{"y": true, "z": true, "w": true}
	if got := jaccardScore(a, b); got != 0.5 {
		t.Errorf("jaccard = %v, want 0.5", got)
	}
	if got := jaccardScore(a, map[string]bool{}); got != 0 {
		t.Errorf("empty set jaccard = %v", got)
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
