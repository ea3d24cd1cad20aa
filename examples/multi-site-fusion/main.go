// Command multi-site-fusion harvests the same world from three differently
// templated sites — train, extract, observe, one site after another —
// then fuses the extractions: facts corroborated by several sites gain
// belief, single-site noise sinks — the knowledge-fusion post-processing
// the paper recommends for multi-site harvests (§5.5.1).
package main

import (
	"context"
	"fmt"
	"log"

	"ceres"
)

func main() {
	ctx := context.Background()
	fuser := ceres.NewFuser(ceres.FusionOptions{
		Functional: map[string]bool{
			"film.hasReleaseYear.year": true,
			"film.hasReleaseDate.date": true,
		},
	})

	// Same world seed: the three sites describe overlapping films, and
	// each aligns against its own seed KB. Sites are observed in sorted
	// order: belief is a floating-point product over a fact's
	// observations, so a fixed order makes it reproducible to the bit.
	for i, site := range []string{"crawl-czech", "imdb-films", "movies"} {
		c, err := ceres.DemoCorpus(site, 1, 80)
		if err != nil {
			log.Fatal(err)
		}
		model, err := ceres.NewPipeline(c.KB, ceres.WithThreshold(0.6)).Train(ctx, c.Pages)
		if err != nil {
			fmt.Printf("site %-12s failed: %v\n", site, err)
			continue
		}
		res, err := model.Extract(ctx, c.Pages)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("site %d (%-12s): %4d triples from %d pages\n", i+1, site, len(res.Triples), res.Pages)
		for _, t := range res.Triples {
			fuser.ObserveTriple(site, t)
		}
	}

	fused := fuser.Facts()
	multi := 0
	for _, f := range fused {
		if len(f.Sources) > 1 {
			multi++
		}
	}
	fmt.Printf("\nfused facts: %d total, %d corroborated by 2+ sites\n\n", len(fused), multi)
	fmt.Println("highest-belief corroborated facts:")
	shown := 0
	for _, f := range fused {
		if len(f.Sources) < 2 {
			continue
		}
		fmt.Printf("  [%.3f] (%s, %s, %s) from %v\n", f.Belief, f.Subject, f.Predicate, f.Object, f.Sources)
		if shown++; shown == 8 {
			break
		}
	}
}
