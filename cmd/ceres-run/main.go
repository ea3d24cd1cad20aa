// Command ceres-run extracts triples from a directory of HTML pages,
// printing the results as TSV (subject, predicate, object, confidence,
// page).
//
// It exposes the train/serve lifecycle: train an extractor from a seed KB
// and optionally persist it, or load a previously trained model and serve
// pages without a KB at all. Since the batch subsystem landed, the command
// is a thin single-site front-end over ceres/batch: pages run through the
// same sharded Runner/Service path as a crawl-scale harvest (output is
// unchanged — the canonical triple order is preserved).
//
// Usage:
//
//	ceres-run -pages ./corpus/pages -kb ./corpus/kb.tsv -threshold 0.75
//	ceres-run -pages ./corpus/pages -kb ./corpus/kb.tsv -save-model site.model
//	ceres-run -pages ./new/pages -model site.model -stream
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ceres"
	"ceres/batch"
	"ceres/internal/fsatomic"
)

func main() {
	pagesDir := flag.String("pages", "", "directory of .html pages")
	kbPath := flag.String("kb", "", "seed KB file (TSV, see ceres.KB.Write); required unless -model is given")
	modelPath := flag.String("model", "", "serve with a trained site model instead of training (see -save-model)")
	saveModel := flag.String("save-model", "", "after training, persist the site model to this file")
	threshold := flag.Float64("threshold", 0.5, "extraction confidence threshold")
	topicOnly := flag.Bool("topic-only", false, "use the CERES-Topic annotation baseline")
	stream := flag.Bool("stream", false, "stream triples as pages finish (bounded memory; order follows completion)")
	stats := flag.Bool("stats", false, "print pipeline statistics to stderr")
	shardPages := flag.Int("shard-pages", 0, "pages per extraction shard (0 = batch default)")
	flag.Parse()
	if *pagesDir == "" || (*kbPath == "" && *modelPath == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *modelPath != "" && (*kbPath != "" || *saveModel != "" || *topicOnly) {
		log.Fatal("-model serves an already-trained extractor: -kb, -save-model and -topic-only only apply when training")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	pages := loadPages(*pagesDir)
	site := filepath.Base(filepath.Clean(*pagesDir))
	if ceres.CheckSiteName(site) != nil {
		site = "site"
	}

	provider := batch.NewMemProvider()
	provider.Add(site, pages)
	registry := ceres.NewRegistry()

	var pipeline *ceres.Pipeline
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model, err := ceres.ReadSiteModel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		// The loaded model carries its trained threshold; only an explicit
		// -threshold overrides it.
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "threshold" {
				model.SetThreshold(*threshold)
			}
		})
		registry.PublishNext(site, model)
	} else {
		kbFile, err := os.Open(*kbPath)
		if err != nil {
			log.Fatal(err)
		}
		k, err := ceres.ReadKB(kbFile)
		if err != nil {
			log.Fatalf("reading KB: %v", err)
		}
		kbFile.Close()

		opts := []ceres.Option{ceres.WithThreshold(*threshold)}
		if *topicOnly {
			opts = append(opts, ceres.WithMode(ceres.ModeTopicOnly))
		}
		pipeline = ceres.NewPipeline(k, opts...)
	}

	printTriple := func(t ceres.Triple) error {
		_, err := fmt.Printf("%s\t%s\t%s\t%.4f\t%s\n", t.Subject, t.Predicate, t.Object, t.Confidence, t.Page)
		return err
	}
	var sink batch.TripleSink
	var collect *batch.CollectSink
	triples := 0
	if *stream {
		sink = &printSink{print: func(t ceres.Triple) error {
			triples++
			return printTriple(t)
		}}
	} else {
		collect = batch.NewCollectSink()
		sink = collect
	}

	runner, err := batch.NewRunner(batch.Config{
		Provider: provider,
		Sink:     sink,
		Registry: registry,
		Pipeline: pipeline,
	})
	if err != nil {
		log.Fatal(err)
	}
	report, err := runner.Run(ctx, batch.Job{Sites: []string{site}, ShardPages: *shardPages})
	if err != nil {
		log.Fatal(err)
	}
	sr := report.Sites[0]
	if sr.Skipped {
		if pipeline != nil {
			log.Fatalf("training: %s", sr.Err)
		}
		log.Fatalf("serving: %s", sr.Err)
	}
	if sr.Err != "" {
		log.Fatalf("extracting: %s", sr.Err)
	}

	model, ok := runner.Registry().Lookup(site)
	if !ok {
		log.Fatal("no model after run")
	}
	if *saveModel != "" {
		var buf bytes.Buffer
		if _, err := model.Model.WriteBinary(&buf); err != nil {
			log.Fatalf("saving model: %v", err)
		}
		if err := fsatomic.WriteFile(*saveModel, buf.Bytes()); err != nil {
			log.Fatalf("saving model: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *saveModel, buf.Len())
	}

	if !*stream {
		// Merge the shards back into the canonical output order — the
		// bytes Extract always printed.
		all := collect.Triples()
		ceres.SortTriples(all)
		triples = len(all)
		for _, t := range all {
			if err := printTriple(t); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *stats {
		m := model.Model
		fmt.Fprintf(os.Stderr, "pages=%d trainpages=%d clusters=%d trained=%d triples=%d\n",
			len(pages), m.TrainPages(), m.TemplateClusters(), m.TrainedClusters(), triples)
	}
}

// printSink streams triples to the printer as shards complete; Write
// calls may come from concurrent shard workers, so they are serialized.
type printSink struct {
	mu    sync.Mutex
	print func(ceres.Triple) error
}

func (s *printSink) OpenShard(batch.Shard) (batch.ShardWriter, error) { return s, nil }
func (s *printSink) Sync() error                                      { return nil }
func (s *printSink) Write(t ceres.Triple) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.print(t)
}
func (s *printSink) Commit() error { return nil }
func (s *printSink) Abort() error  { return nil }

func loadPages(dir string) []ceres.PageSource {
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	var pages []ceres.PageSource
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".html") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			log.Fatal(err)
		}
		pages = append(pages, ceres.PageSource{
			ID:   strings.TrimSuffix(e.Name(), ".html"),
			HTML: string(b),
		})
	}
	if len(pages) == 0 {
		log.Fatalf("no .html pages in %s", dir)
	}
	return pages
}
