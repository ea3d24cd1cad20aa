package ceres

import (
	"context"
	"strings"
	"testing"
)

// trainExtract trains on pages and extracts from the same pages.
func trainExtract(p *Pipeline, pages []PageSource) (*Result, error) {
	m, err := p.Train(context.Background(), pages)
	if err != nil {
		return nil, err
	}
	return m.Extract(context.Background(), pages)
}

func TestPipelineOnDemoCorpus(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(c.KB)
	res, err := trainExtract(p, c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnnotatedPages < 40 {
		t.Errorf("annotated %d/50 pages", res.AnnotatedPages)
	}
	if len(res.Triples) == 0 {
		t.Fatal("no triples")
	}
	prec, rec, f1 := c.Score(res.Triples)
	t.Logf("demo movies: P=%.3f R=%.3f F1=%.3f (%d triples)", prec, rec, f1, len(res.Triples))
	if prec < 0.85 || rec < 0.55 {
		t.Errorf("quality too low: P=%.3f R=%.3f", prec, rec)
	}
	// Triples sorted by confidence descending.
	for i := 1; i < len(res.Triples); i++ {
		if res.Triples[i].Confidence > res.Triples[i-1].Confidence {
			t.Fatalf("triples not sorted at %d", i)
		}
	}
	// Subjects are topic names.
	wrong := 0
	for _, tr := range res.Triples {
		if want := c.TopicOf[tr.Page]; want != "" && tr.Subject != want {
			wrong++
		}
	}
	if wrong > len(res.Triples)/20 {
		t.Errorf("%d/%d wrong subjects", wrong, len(res.Triples))
	}
}

func TestPipelineThresholdOption(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := trainExtract(NewPipeline(c.KB, WithThreshold(0.5)), c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := trainExtract(NewPipeline(c.KB, WithThreshold(0.9)), c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Triples) >= len(loose.Triples) {
		t.Errorf("higher threshold should yield fewer triples: %d vs %d",
			len(tight.Triples), len(loose.Triples))
	}
	pl, _, _ := c.Score(loose.Triples)
	pt, _, _ := c.Score(tight.Triples)
	if pt+1e-9 < pl {
		t.Errorf("higher threshold should not lower precision: %.3f vs %.3f", pt, pl)
	}
}

func TestPipelineModeOption(t *testing.T) {
	c, err := DemoCorpus("imdb-people", 9, 40)
	if err != nil {
		t.Fatal(err)
	}
	full, err := trainExtract(NewPipeline(c.KB, WithMode(ModeFull)), c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	topic, err := trainExtract(NewPipeline(c.KB, WithMode(ModeTopicOnly)), c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	pf, _, _ := c.Score(full.Triples)
	pt, _, _ := c.Score(topic.Triples)
	if pf < pt-1e-9 {
		t.Errorf("ModeFull precision %.3f below ModeTopicOnly %.3f on the ambiguous corpus", pf, pt)
	}
}

func TestPipelineNewEntityDiscovery(t *testing.T) {
	c, err := DemoCorpus("movies-longtail", 11, 60)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainExtract(NewPipeline(c.KB), c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	newEnt := 0
	for _, tr := range res.Triples {
		if _, ok := c.KB.Entity(tr.Page); !ok { // demo page IDs are film IDs
			newEnt++
		}
	}
	if newEnt == 0 {
		t.Errorf("no triples about entities outside the seed KB")
	}
}

func TestPipelineErrors(t *testing.T) {
	c, _ := DemoCorpus("movies", 7, 10)
	p := NewPipeline(c.KB)
	if _, err := trainExtract(p, nil); err == nil {
		t.Errorf("empty input should fail")
	}
	if _, err := trainExtract(p, []PageSource{{ID: "", HTML: "<html></html>"}}); err == nil {
		t.Errorf("empty page ID should fail")
	}
	if _, err := DemoCorpus("nope", 1, 10); err == nil {
		t.Errorf("unknown corpus should fail")
	}
}

func TestDemoCorpusKinds(t *testing.T) {
	for _, kind := range []string{"movies", "movies-longtail", "imdb-films", "imdb-people", "crawl-czech"} {
		c, err := DemoCorpus(kind, 3, 20)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(c.Pages) == 0 || c.KB.NumTriples() == 0 || len(c.Gold) == 0 {
			t.Errorf("%s: empty corpus (%d pages, %d triples, %d gold)",
				kind, len(c.Pages), c.KB.NumTriples(), len(c.Gold))
		}
	}
	// The Czech corpus renders Czech labels.
	c, _ := DemoCorpus("crawl-czech", 3, 12)
	found := false
	for _, p := range c.Pages {
		if strings.Contains(p.HTML, "Režie") {
			found = true
		}
	}
	if !found {
		t.Errorf("crawl-czech should carry Czech labels")
	}
}

func TestKBFacade(t *testing.T) {
	o := NewOntology(Predicate{Name: "p", Domain: "t"})
	k := NewKB(o)
	if err := k.AddEntity(Entity{ID: "e1", Type: "t", Name: "Thing One"}); err != nil {
		t.Fatal(err)
	}
	if err := k.AddTriple(KBTriple{Subject: "e1", Predicate: "p", Object: LiteralObject("v")}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := k.Write(&sb); err != nil {
		t.Fatal(err)
	}
	k2, err := ReadKB(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if k2.NumTriples() != 1 {
		t.Errorf("roundtrip lost triples")
	}
	if EntityObject("x").Key() != "e:x" {
		t.Errorf("EntityObject key")
	}
}

// TestTrainingKey: the key follows every input of Train but the pages —
// one more KB triple or any option is another key.
func TestTrainingKey(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := NewPipeline(c.KB).TrainingKey()
	if base != NewPipeline(c.KB).TrainingKey() {
		t.Error("equal training inputs gave different keys")
	}
	for name, opt := range map[string]Option{
		"WithMinAnnotations": WithMinAnnotations(5),
		"WithMode":           WithMode(ModeTopicOnly),
		"WithThreshold":      WithThreshold(0.75),
	} {
		if NewPipeline(c.KB, opt).TrainingKey() == base {
			t.Errorf("%s left the training key unchanged", name)
		}
	}
	film := c.KB.EntityIDs()[0]
	if err := c.KB.AddEntity(Entity{ID: "added-entity", Type: "person", Name: "Added Person"}); err != nil {
		t.Fatal(err)
	}
	grownEntity := NewPipeline(c.KB).TrainingKey()
	pred := c.KB.Ontology().Names()[0]
	if err := c.KB.AddTriple(KBTriple{Subject: film, Predicate: pred, Object: LiteralObject("added literal")}); err != nil {
		t.Fatal(err)
	}
	if grown := NewPipeline(c.KB).TrainingKey(); grown == base || grown == grownEntity || grownEntity == base {
		t.Error("a grown KB kept its training key")
	}
}
