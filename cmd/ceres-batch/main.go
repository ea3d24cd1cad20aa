// Command ceres-batch runs a crawl-scale batch harvest: train → publish →
// extract → fuse over a stored multi-site page corpus, sharded and
// checkpointed so a killed run resumes exactly where it stopped.
//
// It mirrors the paper's CommonCrawl experiment (§5.5) end to end. With
// -gen it first materializes the 33-site long-tail movie crawl (a scaled
// websim analogue of Table 8) into the page store, together with the seed
// KB; subsequent invocations harvest whatever the store holds:
//
//	ceres-batch -dir ./harvest -gen            # generate + harvest + fuse
//	ceres-batch -dir ./harvest                 # resume / re-run
//	ceres-batch -dir ./harvest -sites kinobox.cz,nfb.ca -threshold 0.75
//
// Interrupting a run (SIGINT/SIGTERM) leaves the checkpoint manifest and
// every committed shard intact; the next invocation resumes, retraining
// nothing that the model store already holds, and produces output
// byte-identical to an uninterrupted run.
//
// Layout under -dir: pages/ (pagestore), kb.tsv (seed KB), models/
// (versioned SiteModel store), triples/ (one JSONL file per committed
// shard), checkpoint.json, fused.jsonl.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ceres"
	"ceres/batch"
	"ceres/internal/fsatomic"
	"ceres/internal/jsonl"
	"ceres/internal/websim"
	"ceres/pagestore"
)

func main() {
	dir := flag.String("dir", "harvest", "harvest directory (pages, models, triples, checkpoint, fused output)")
	gen := flag.Bool("gen", false, "generate the 33-site websim crawl into the page store if it is empty")
	seed := flag.Int64("seed", 1, "crawl generator seed (-gen)")
	scale := flag.Float64("scale", 0, "crawl scale factor over the paper's page counts (-gen; 0 = websim default 1/75)")
	maxSitePages := flag.Int("max-site-pages", 0, "per-site page cap (-gen; 0 = websim default 400)")
	sitesFlag := flag.String("sites", "", "comma-separated site subset (default: every stored site)")
	shardPages := flag.Int("shard-pages", 64, "pages per shard — the unit of parallelism, checkpointing and memory")
	workers := flag.Int("workers", 4, "shards extracted concurrently")
	trainPages := flag.Int("train-pages", 200, "leading pages used to train a site with no published model (0 = all)")
	threshold := flag.Float64("threshold", 0.5, "extraction confidence threshold for newly trained models")
	fuse := flag.Bool("fuse", true, "run the streaming fusion stage and write fused.jsonl")
	reset := flag.Bool("reset", false, "discard checkpoint and shard output before running")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	store, err := pagestore.Open(filepath.Join(*dir, "pages"))
	if err != nil {
		log.Fatal(err)
	}
	kbPath := filepath.Join(*dir, "kb.tsv")
	if *gen {
		if err := generateCrawl(store, kbPath, *seed, *scale, *maxSitePages); err != nil {
			log.Fatal(err)
		}
	}
	sites, err := store.Sites()
	if err != nil {
		log.Fatal(err)
	}
	if len(sites) == 0 {
		log.Fatalf("page store %s holds no sites (run with -gen, or ingest a crawl first)", store.Root())
	}

	if *reset {
		if err := os.Remove(filepath.Join(*dir, "checkpoint.json")); err != nil && !os.IsNotExist(err) {
			log.Fatal(err)
		}
		if err := os.RemoveAll(filepath.Join(*dir, "triples")); err != nil {
			log.Fatal(err)
		}
	}

	var pipeline *ceres.Pipeline
	if kbFile, err := os.Open(kbPath); err == nil {
		kb, kerr := ceres.ReadKB(kbFile)
		kbFile.Close()
		if kerr != nil {
			log.Fatalf("reading seed KB %s: %v", kbPath, kerr)
		}
		pipeline = ceres.NewPipeline(kb, ceres.WithThreshold(*threshold))
	} else if !os.IsNotExist(err) {
		log.Fatal(err)
	} else {
		fmt.Fprintf(os.Stderr, "no seed KB at %s: serving stored models only, new sites are skipped\n", kbPath)
	}

	modelStore, err := ceres.NewDirStore(filepath.Join(*dir, "models"))
	if err != nil {
		log.Fatal(err)
	}
	registry, err := ceres.OpenRegistry(ctx, modelStore)
	if err != nil {
		log.Fatal(err)
	}
	sink, err := batch.NewJSONLSink(filepath.Join(*dir, "triples"))
	if err != nil {
		log.Fatal(err)
	}
	runner, err := batch.NewRunner(batch.Config{
		Provider:       store,
		Sink:           sink,
		Registry:       registry,
		Store:          modelStore,
		Pipeline:       pipeline,
		CheckpointPath: filepath.Join(*dir, "checkpoint.json"),
	})
	if err != nil {
		log.Fatal(err)
	}

	job := batch.Job{
		ShardPages: *shardPages,
		Workers:    *workers,
		TrainPages: *trainPages,
		Fuse:       *fuse,
	}
	if *sitesFlag != "" {
		for _, s := range strings.Split(*sitesFlag, ",") {
			if s = strings.TrimSpace(s); s != "" {
				job.Sites = append(job.Sites, s)
			}
		}
	}

	report, err := runner.Run(ctx, job)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted: checkpoint saved, re-run to resume")
			os.Exit(130)
		}
		log.Fatal(err)
	}

	if *fuse {
		if err := writeFused(filepath.Join(*dir, "fused.jsonl"), report.Facts); err != nil {
			log.Fatal(err)
		}
	}
	if err := writeStats(filepath.Join(*dir, "stats.json"), report); err != nil {
		log.Fatal(err)
	}
	printReport(report, *fuse)

	// Skipped long-tail sites are an expected harvest outcome; extraction
	// errors are not — surface them in the exit code so pipelines notice
	// the fused output is missing those sites' shards.
	for _, sr := range report.Sites {
		if !sr.Skipped && sr.Err != "" {
			fmt.Fprintf(os.Stderr, "site %s failed: %s\n", sr.Site, sr.Err)
			os.Exit(1)
		}
	}
}

// generateCrawl materializes the websim long-tail crawl into an empty
// page store and writes its seed KB next to it. A marker file written
// after the last site distinguishes a complete generation from one a
// kill interrupted: complete stores are skipped, partial ones refused.
func generateCrawl(store *pagestore.Store, kbPath string, seed int64, scale float64, maxSitePages int) error {
	marker := filepath.Join(store.Root(), "crawl.json")
	if _, err := os.Stat(marker); err == nil {
		fmt.Fprintln(os.Stderr, "page store already holds a generated crawl; skipping generation")
		return nil
	}
	if sites, err := store.Sites(); err != nil {
		return err
	} else if len(sites) > 0 {
		return fmt.Errorf("page store %s holds %d sites but no generation marker — an earlier -gen was interrupted; delete the store and retry", store.Root(), len(sites))
	}
	fmt.Fprintln(os.Stderr, "generating websim long-tail crawl...")
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: seed, Scale: scale, MaxSitePages: maxSitePages})
	total := 0
	for i, site := range crawl.Sites {
		w, err := store.Writer(crawl.Specs[i].Name)
		if err != nil {
			return err
		}
		for _, p := range site.Pages {
			if err := w.Append(ceres.PageSource{ID: p.ID, HTML: p.HTML}); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		total += len(site.Pages)
	}
	kbFile, err := os.CreateTemp(filepath.Dir(kbPath), "."+filepath.Base(kbPath)+"-*")
	if err != nil {
		return err
	}
	if err := crawl.SeedKB.Write(kbFile); err != nil {
		kbFile.Close()
		os.Remove(kbFile.Name())
		return err
	}
	if err := fsatomic.Commit(kbFile, kbPath); err != nil {
		return err
	}
	mb, err := json.Marshal(map[string]any{"seed": seed, "scale": scale, "sites": len(crawl.Sites), "pages": total})
	if err != nil {
		return err
	}
	if err := fsatomic.WriteFile(marker, append(mb, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %d sites, %d pages; seed KB: %d triples\n",
		len(crawl.Sites), total, crawl.SeedKB.NumTriples())
	return nil
}

// writeFused writes the fused facts as JSON lines — encoding/json's
// encoding of ceres.FusedFact, byte for byte, through the harvest's own
// encoder — atomically.
func writeFused(path string, facts []ceres.FusedFact) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	var line []byte
	for i := range facts {
		if line, err = jsonl.AppendFact(line[:0], &facts[i]); err != nil {
			break
		}
		if _, err = w.Write(line); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	return fsatomic.Commit(f, path)
}

// writeStats writes the machine-readable run report — the Table-8
// numbers plus the per-stage wall-time breakdown — next to the harvest
// output, atomically so a reader never sees a half-written report.
func writeStats(path string, rep *batch.Report) error {
	type stage struct {
		Stage string `json:"stage"`
		Ns    int64  `json:"ns"`
	}
	var stages []stage
	rep.Stages.Each(func(name string, d time.Duration) {
		stages = append(stages, stage{Stage: name, Ns: d.Nanoseconds()})
	})
	doc := map[string]any{
		"sites":     rep.Sites,
		"pages":     rep.Pages,
		"triples":   rep.Triples,
		"shards":    rep.Shards,
		"resumed":   rep.Resumed,
		"facts":     len(rep.Facts),
		"elapsedNs": rep.Elapsed.Nanoseconds(),
		"stages":    stages,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, append(b, '\n'))
}

// printReport writes the per-site harvest summary — the CLI's analogue of
// the paper's Table 8 — followed by the run's per-stage wall-time
// breakdown (worker-summed, so stages can exceed elapsed).
func printReport(rep *batch.Report, fused bool) {
	fmt.Printf("%-32s %7s %7s %7s %8s %8s %3s  %s\n",
		"site", "pages", "shards", "done", "resumed", "triples", "v", "status")
	for _, sr := range rep.Sites {
		status := "ok"
		switch {
		case sr.Skipped:
			status = "skipped: " + sr.Err
		case sr.Err != "":
			status = "error: " + sr.Err
		case sr.Trained:
			status = "ok (trained)"
		}
		fmt.Printf("%-32s %7d %7d %7d %8d %8d %3d  %s\n",
			sr.Site, sr.Pages, sr.Shards, sr.Done, sr.Resumed, sr.Triples, sr.Version, status)
	}
	fmt.Printf("\nrun: %d pages extracted, %d triples, %d shards executed, %d resumed, %s elapsed\n",
		rep.Pages, rep.Triples, rep.Shards, rep.Resumed, rep.Elapsed.Round(1e6))
	fmt.Printf("stages (worker-summed):")
	rep.Stages.Each(func(name string, d time.Duration) {
		if d > 0 {
			fmt.Printf(" %s %s", name, d.Round(1e5))
		}
	})
	fmt.Println()
	if fused {
		fmt.Printf("fused: %d facts -> fused.jsonl\n", len(rep.Facts))
	}
	fmt.Println(fitSummary(rep))
}

// fitSummary is the report's last line: how many classifiers this run
// fitted, how many of those stopped at the iteration cap short of their
// tolerance, and how far the training examples collapsed into distinct
// rows. An unconverged fit is usable but sensitive to float summation
// order; the per-site detail is in stats.json.
func fitSummary(rep *batch.Report) string {
	var fits, unconverged, examples, rows int
	for _, sr := range rep.Sites {
		for _, f := range sr.Fits {
			fits++
			if !f.Converged {
				unconverged++
			}
			examples += f.Examples
			rows += f.Rows
		}
	}
	return fmt.Sprintf("fits: %d trained, %d unconverged, %d examples in %d rows", fits, unconverged, examples, rows)
}
