// Command longtail-harvest mirrors the paper's CommonCrawl experiment
// (§5.5) in miniature: extract from a long-tail, non-English movie site
// whose entities only partially overlap the seed KB, and report how many
// facts concern entities the KB had never seen — the knowledge-base growth
// loop that motivates CERES. It runs through the batch harvest subsystem:
// the site is trained once, published into a versioned model store (as a
// separate serving process would load it), and extracted shard by shard
// with bounded memory.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ceres"
	"ceres/batch"
)

func main() {
	pages := flag.Int("pages", 150, "site size")
	seed := flag.Int64("seed", 1, "generator seed")
	threshold := flag.Float64("threshold", 0.75, "extraction confidence threshold")
	shardPages := flag.Int("shard-pages", 32, "pages per extraction shard")
	flag.Parse()
	ctx := context.Background()

	corpus, err := ceres.DemoCorpus("crawl-czech", *seed, *pages)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("site kinobox.cz (synthetic): %d Czech-language pages; seed KB: %d triples\n\n",
		len(corpus.Pages), corpus.KB.NumTriples())

	// The batch runner trains the site once, publishes the model into a
	// versioned store (where any serving process could load it), and
	// extracts shard by shard — one shard of pages in memory at a time.
	tmp, err := os.MkdirTemp("", "longtail-harvest-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	store, err := ceres.NewDirStore(filepath.Join(tmp, "models"))
	if err != nil {
		log.Fatal(err)
	}
	provider := batch.NewMemProvider()
	provider.Add("kinobox.cz", corpus.Pages)
	sink := batch.NewCollectSink()
	runner, err := batch.NewRunner(batch.Config{
		Provider: provider,
		Sink:     sink,
		Store:    store,
		Pipeline: ceres.NewPipeline(corpus.KB, ceres.WithThreshold(*threshold)),
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := runner.Run(ctx, batch.Job{ShardPages: *shardPages})
	if err != nil {
		log.Fatal(err)
	}
	site := report.Sites[0]
	if site.Skipped || site.Err != "" {
		log.Fatalf("harvest failed: %s", site.Err)
	}

	// The published artifact is what a separate serving fleet would load.
	served, _, err := store.Latest("kinobox.cz")
	if err != nil {
		log.Fatal(err)
	}
	size, err := served.WriteBinary(io.Discard)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("site model: %d bytes serialized, %d template clusters (%d trained)\n",
		size, served.TemplateClusters(), served.TrainedClusters())
	fmt.Printf("harvest: %d shards, %d pages extracted through model v%d\n",
		site.Shards, report.Pages, site.Version)

	triples := sink.Triples()
	ceres.SortTriples(triples)
	prec, rec, _ := corpus.Score(triples)

	// Count triples about subjects absent from the seed KB.
	known := map[string]bool{}
	for _, id := range corpus.KB.EntityIDs() {
		e, _ := corpus.KB.Entity(id)
		known[strings.ToLower(e.Name)] = true
	}
	newEntity := 0
	for _, t := range triples {
		if !known[strings.ToLower(t.Subject)] {
			newEntity++
		}
	}

	fmt.Printf("triples@%.2f: %d   P=%.3f R=%.3f\n", *threshold, len(triples), prec, rec)
	fmt.Printf("triples about entities NOT in the seed KB: %d (%.0f%%)\n\n",
		newEntity, 100*float64(newEntity)/float64(max(1, len(triples))))

	fmt.Println("sample extractions:")
	for i, t := range triples {
		if i == 10 {
			break
		}
		fmt.Printf("  [%.2f] (%s, %s, %s)\n", t.Confidence, t.Subject, t.Predicate, t.Object)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
