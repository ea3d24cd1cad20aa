package ceres_test

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"ceres"
)

// demoSite renders a tiny fixed-template film site for the examples.
func demoSite() []ceres.PageSource {
	page := func(title, director, year string) string {
		return `<html><body><h1 class="title">` + title + `</h1>
<table class="facts">
<tr><th>Director</th><td>` + director + `</td></tr>
<tr><th>Year</th><td>` + year + `</td></tr>
</table></body></html>`
	}
	return []ceres.PageSource{
		{ID: "m1", HTML: page("Do the Right Thing", "Spike Lee", "1989")},
		{ID: "m2", HTML: page("Crooklyn", "Spike Lee", "1994")},
		{ID: "m3", HTML: page("The Silent Harbor", "Ada Dahl", "2001")},
		{ID: "m4", HTML: page("Crimson Orchard", "Tessa Novak", "2010")},
	}
}

// demoKB seeds facts about three of the four demo films.
func demoKB() *ceres.KB {
	k := ceres.NewKB(ceres.NewOntology(
		ceres.Predicate{Name: "directedBy", Domain: "film", Range: "person"},
		ceres.Predicate{Name: "releaseYear", Domain: "film"},
	))
	for i, s := range []struct{ title, director, year string }{
		{"Do the Right Thing", "Spike Lee", "1989"},
		{"Crooklyn", "Spike Lee", "1994"},
		{"The Silent Harbor", "Ada Dahl", "2001"},
	} {
		fid := fmt.Sprintf("f%d", i+1)
		pid := fmt.Sprintf("p%d", i+1)
		k.AddEntity(ceres.Entity{ID: fid, Type: "film", Name: s.title})
		k.AddEntity(ceres.Entity{ID: pid, Type: "person", Name: s.director})
		k.AddTriple(ceres.KBTriple{Subject: fid, Predicate: "directedBy", Object: ceres.EntityObject(pid)})
		k.AddTriple(ceres.KBTriple{Subject: fid, Predicate: "releaseYear", Object: ceres.LiteralObject(s.year)})
	}
	return k
}

// ExamplePipeline_Train shows the train-once/extract-forever lifecycle:
// training produces a SiteModel, and the model serves pages — here one it
// has never seen — without touching the KB again.
func ExamplePipeline_Train() {
	ctx := context.Background()
	p := ceres.NewPipeline(demoKB(), ceres.WithMinAnnotations(2))
	model, err := p.Train(ctx, demoSite())
	if err != nil {
		log.Fatal(err)
	}

	unseen := []ceres.PageSource{{ID: "m9", HTML: `<html><body><h1 class="title">Glass Meridian</h1>
<table class="facts">
<tr><th>Director</th><td>Ada Dahl</td></tr>
<tr><th>Year</th><td>2021</td></tr>
</table></body></html>`}}
	res, err := model.Extract(ctx, unseen)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range res.Triples {
		fmt.Printf("(%s, %s, %s)\n", t.Subject, t.Predicate, t.Object)
	}
	// Triples come in descending confidence, and these two are a near-tie.

	// Unordered output:
	// (Glass Meridian, directedBy, Ada Dahl)
	// (Glass Meridian, releaseYear, 2021)
}

// ExampleSiteModel_WriteBinary persists a trained extractor and reloads it
// the way a separate serving process would: no KB, no retraining.
func ExampleSiteModel_WriteBinary() {
	ctx := context.Background()
	model, err := ceres.NewPipeline(demoKB(), ceres.WithMinAnnotations(2)).Train(ctx, demoSite())
	if err != nil {
		log.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := model.WriteBinary(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := ceres.ReadSiteModel(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters=%d trained=%d threshold=%.1f\n",
		loaded.TemplateClusters(), loaded.TrainedClusters(), loaded.Threshold())
	// Output:
	// clusters=1 trained=1 threshold=0.5
}

// ExampleService shows the serving stack answering a request-scoped call:
// the trained model is published into a Registry and a Service extracts
// from a page it has never seen, at a threshold chosen by the request —
// the model itself is never mutated.
func ExampleService() {
	ctx := context.Background()
	model, err := ceres.NewPipeline(demoKB(), ceres.WithMinAnnotations(2)).Train(ctx, demoSite())
	if err != nil {
		log.Fatal(err)
	}

	reg := ceres.NewRegistry()
	reg.Publish("films.example", 1, model)
	svc := ceres.NewService(reg)

	strict := 0.75
	resp, err := svc.Extract(ctx, ceres.ExtractRequest{
		Site: "films.example",
		Pages: []ceres.PageSource{{ID: "m9", HTML: `<html><body><h1 class="title">Glass Meridian</h1>
<table class="facts">
<tr><th>Director</th><td>Ada Dahl</td></tr>
<tr><th>Year</th><td>2021</td></tr>
</table></body></html>`}},
		Options: ceres.RequestOptions{Threshold: &strict},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served v%d: %d pages, %d triples\n", resp.Version, resp.Stats.Pages, resp.Stats.Triples)
	for _, t := range resp.Triples {
		fmt.Printf("(%s, %s, %s)\n", t.Subject, t.Predicate, t.Object)
	}
	// Triples come in descending confidence, and these two are a near-tie.

	// Unordered output:
	// served v1: 1 pages, 2 triples
	// (Glass Meridian, directedBy, Ada Dahl)
	// (Glass Meridian, releaseYear, 2021)
}
