// Command ceres-gen materializes a synthetic corpus on disk: one HTML file
// per page, the seed KB as kb.tsv, and the ground truth as gold.tsv —
// ready for ceres-run.
//
// Usage:
//
//	ceres-gen -kind movies -pages 100 -seed 1 -out ./corpus
//
// Kinds: movies, movies-longtail, imdb-films, imdb-people, crawl-czech.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ceres"
	"ceres/internal/fsatomic"
)

func main() {
	kind := flag.String("kind", "movies", "corpus kind (see ceres.DemoCorpus)")
	pages := flag.Int("pages", 100, "number of pages")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "corpus", "output directory")
	flag.Parse()

	c, err := ceres.DemoCorpus(*kind, *seed, *pages)
	if err != nil {
		log.Fatal(err)
	}
	pagesDir := filepath.Join(*out, "pages")
	if err := os.MkdirAll(pagesDir, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, p := range c.Pages {
		if err := fsatomic.WriteFile(filepath.Join(pagesDir, p.ID+".html"), []byte(p.HTML)); err != nil {
			log.Fatal(err)
		}
	}
	kbPath := filepath.Join(*out, "kb.tsv")
	var kb bytes.Buffer
	if err := c.KB.Write(&kb); err != nil {
		log.Fatal(err)
	}
	if err := fsatomic.WriteFile(kbPath, kb.Bytes()); err != nil {
		log.Fatal(err)
	}
	var gold strings.Builder
	for _, g := range c.Gold {
		fmt.Fprintf(&gold, "%s\t%s\t%s\n", g.Page, g.Predicate, g.Value)
	}
	if err := fsatomic.WriteFile(filepath.Join(*out, "gold.tsv"), []byte(gold.String())); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d pages, kb.tsv (%d triples), gold.tsv (%d facts) to %s\n",
		len(c.Pages), c.KB.NumTriples(), len(c.Gold), *out)
}
