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
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ceres"
	"ceres/batch"
	"ceres/internal/fsatomic"
	"ceres/internal/jsonl"
	"ceres/internal/par"
	"ceres/internal/websim"
	"ceres/pagestore"
)

// options are the command's flags.
type options struct {
	dir          string
	gen          bool
	seed         int64
	scale        float64
	maxSitePages int
	sites        string
	shardPages   int
	workers      int
	trainPages   int
	threshold    float64
	fuse         bool
	reset        bool
	cpuProfile   string
}

// register defines the command's flags on fs, setting o to their defaults.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.dir, "dir", "harvest", "harvest directory (pages, models, triples, checkpoint, fused output)")
	fs.BoolVar(&o.gen, "gen", false, "generate the 33-site websim crawl into the page store if it is empty")
	fs.Int64Var(&o.seed, "seed", 1, "crawl generator seed (-gen)")
	fs.Float64Var(&o.scale, "scale", 0, "crawl scale factor over the paper's page counts (-gen; 0 = websim default 1/75)")
	fs.IntVar(&o.maxSitePages, "max-site-pages", 0, "per-site page cap (-gen; 0 = websim default 400)")
	fs.StringVar(&o.sites, "sites", "", "comma-separated site subset (default: every stored site)")
	fs.IntVar(&o.shardPages, "shard-pages", 64, "pages per shard — the unit of parallelism, checkpointing and memory")
	fs.IntVar(&o.workers, "workers", 4, "shards extracted concurrently")
	fs.IntVar(&o.trainPages, "train-pages", 200, "leading pages used to train a site with no published model (0 = all)")
	fs.Float64Var(&o.threshold, "threshold", 0.5, "extraction confidence threshold for newly trained models")
	fs.BoolVar(&o.fuse, "fuse", true, "run the streaming fusion stage and write fused.jsonl")
	fs.BoolVar(&o.reset, "reset", false, "discard checkpoint and shard output before running (models and training verdicts stay)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file (diagnostic; written on a clean exit)")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	stopProfile, err := startCPUProfile(o.cpuProfile)
	if err != nil {
		log.Fatal(err)
	}
	report, use, err := harvest(ctx, o)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted: checkpoint saved, re-run to resume")
			os.Exit(130)
		}
		log.Fatal(err)
	}
	if err := stopProfile(); err != nil {
		log.Fatal(err)
	}
	printReport(report, use, o.fuse)

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

// startCPUProfile starts a CPU profile, kept in memory, and returns what
// stops it and publishes it as path; with no path both do nothing.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return fsatomic.WriteFile(path, buf.Bytes())
	}, nil
}

// ownTemps are the temp-file prefixes of what this command publishes into
// the harvest directory itself. A kill between create and rename leaves
// one behind; the next invocation owns the directory (one process at a
// time, as the checkpoint protocol assumes) and sweeps them. The sink
// sweeps triples/ the same way; models/ is not swept — a DirStore is
// shared with live daemons.
var ownTemps = []string{".checkpoint.json-", ".fused.jsonl-", ".stats.json-", ".kb.tsv-"}

// usage is what a run read from the page store, what it allocated and
// where its time outside Runner.Run went.
type usage struct {
	reads   pagestore.ReadStats
	memory  memoryUse
	outside outsideTimes
}

// outsideTimes is an invocation's wall time outside Runner.Run, phase by
// phase; with Run's it adds up to the invocation's. Open is the page
// store's opening, the temp-file sweep and -gen; Reset what -reset holds
// the pass up for (moving the last pass's output aside, and waiting, at
// the end of Run, for its deletion beside the run); KBDigest reading and
// digesting kb.tsv; Registry opening the model store and the registry,
// the sink and the runner; FusedWrite publishing fused.jsonl; StatsWrite
// writing stats.json. The document holds only what came before its bytes
// were fixed: its own encoding and write show in the printed report
// alone.
type outsideTimes struct {
	Open       time.Duration `json:"openNs"`
	Reset      time.Duration `json:"resetNs"`
	KBDigest   time.Duration `json:"kbDigestNs"`
	Registry   time.Duration `json:"registryNs"`
	FusedWrite time.Duration `json:"fusedWriteNs"`
	StatsWrite time.Duration `json:"statsWriteNs"`
}

// lap returns the time since *mark and moves *mark to now.
func lap(mark *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}

// trashPrefix starts the name of a directory -reset moved the previous
// pass's shard output into, under the harvest directory; what is in it
// is deleted beside the run (emptyTrash).
const trashPrefix = ".trash-"

// moveAside renames dir, if it exists, into a new trash directory next to
// it: the name is free at once, and the files go later, off the pass's
// path.
func moveAside(dir string) error {
	if _, err := os.Lstat(dir); os.IsNotExist(err) {
		return nil
	}
	trash, err := os.MkdirTemp(filepath.Dir(dir), trashPrefix)
	if err != nil {
		return err
	}
	return fsatomic.Rename(dir, filepath.Join(trash, filepath.Base(dir)))
}

// emptyTrash deletes, on a goroutine of its own, every trash directory in
// dir: this invocation's and any a killed one left. Each removal goes
// through fsatomic, so a crash test can stop the deletion midway; one that
// fails, or a cancelled ctx, leaves the rest for the next invocation.
func emptyTrash(ctx context.Context, dir string) *par.Group {
	return par.Go(ctx, 1, func(ctx context.Context, _ int) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range ents {
			if e.IsDir() && strings.HasPrefix(e.Name(), trashPrefix) {
				if err := removeTree(ctx, filepath.Join(dir, e.Name())); err != nil {
					fmt.Fprintf(os.Stderr, "leaving %s to the next run: %v\n", e.Name(), err)
					return
				}
			}
		}
	})
}

// removeTree removes the directory dir and everything under it, one
// fsatomic.Remove at a time, following no symbolic link.
func removeTree(ctx context.Context, dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := ctx.Err(); err != nil {
			return err
		}
		path := filepath.Join(dir, e.Name())
		if e.IsDir() {
			err = removeTree(ctx, path)
		} else {
			err = fsatomic.Remove(path)
		}
		if err != nil {
			return err
		}
	}
	return fsatomic.Remove(dir)
}

// memoryUse counts the bytes the process allocated on the heap and the
// garbage-collection cycles it ran, over an interval.
type memoryUse struct {
	AllocBytes uint64 `json:"allocBytes"`
	GCCycles   uint64 `json:"gcCycles"`
}

// readMemory reads the process's running totals from runtime/metrics.
func readMemory() memoryUse {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return memoryUse{AllocBytes: s[0].Value.Uint64(), GCCycles: s[1].Value.Uint64()}
}

// since is what was allocated and collected after start.
func (m memoryUse) since(start memoryUse) memoryUse {
	return memoryUse{AllocBytes: m.AllocBytes - start.AllocBytes, GCCycles: m.GCCycles - start.GCCycles}
}

// harvest is one invocation's work on the harvest directory: open the
// page store (generating the crawl with -gen), run the batch job, and
// write fused.jsonl and stats.json. It returns the run's report, what the
// page store's reads did, what the run allocated up to stats.json and
// where its time outside the run went.
func harvest(ctx context.Context, o options) (*batch.Report, usage, error) {
	var none usage
	var out outsideTimes
	start, mark := readMemory(), time.Now()
	store, err := pagestore.Open(filepath.Join(o.dir, "pages"))
	if err != nil {
		return nil, none, err
	}
	fsatomic.RemoveTemps(o.dir, ownTemps...)
	kbPath := filepath.Join(o.dir, "kb.tsv")
	if o.gen {
		if err := generateCrawl(store, kbPath, o.seed, o.scale, o.maxSitePages); err != nil {
			return nil, none, err
		}
	}
	sites, err := store.Sites()
	if err != nil {
		return nil, none, err
	}
	if len(sites) == 0 {
		return nil, none, fmt.Errorf("page store %s holds no sites (run with -gen, or ingest a crawl first)", store.Root())
	}
	out.Open = lap(&mark)

	// -reset takes the previous pass's checkpoint away and moves its shard
	// files aside; they are deleted beside the run, with whatever trash a
	// killed invocation left, and the run waits for that only at its end.
	if o.reset {
		if err := os.Remove(filepath.Join(o.dir, "checkpoint.json")); err != nil && !os.IsNotExist(err) {
			return nil, none, err
		}
		if err := moveAside(filepath.Join(o.dir, "triples")); err != nil {
			return nil, none, err
		}
	}
	trash := emptyTrash(ctx, o.dir)
	defer trash.Wait()
	out.Reset = lap(&mark)

	// The pipeline keeps kb.tsv's text and its digest, and never a parsed
	// KB; a site that trains builds the KB's index from the text: a pass
	// whose sites all have models or stored verdicts never parses it.
	var pipeline *ceres.Pipeline
	if text, err := os.ReadFile(kbPath); err == nil {
		pipeline, err = ceres.NewPipelineTSV(text, ceres.WithThreshold(o.threshold))
		if err != nil {
			return nil, none, fmt.Errorf("reading seed KB %s: %v", kbPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, none, err
	} else {
		fmt.Fprintf(os.Stderr, "no seed KB at %s: serving stored models only, new sites are skipped\n", kbPath)
	}
	out.KBDigest = lap(&mark)

	modelStore, err := ceres.NewDirStore(filepath.Join(o.dir, "models"))
	if err != nil {
		return nil, none, err
	}
	registry, err := ceres.OpenRegistry(ctx, modelStore)
	if err != nil {
		return nil, none, err
	}
	sink, err := batch.NewJSONLSink(filepath.Join(o.dir, "triples"))
	if err != nil {
		return nil, none, err
	}
	runner, err := batch.NewRunner(batch.Config{
		Provider:       store,
		Sink:           sink,
		Registry:       registry,
		Store:          modelStore,
		Pipeline:       pipeline,
		CheckpointPath: filepath.Join(o.dir, "checkpoint.json"),
	})
	if err != nil {
		return nil, none, err
	}

	job := batch.Job{
		ShardPages: o.shardPages,
		Workers:    o.workers,
		TrainPages: o.trainPages,
		Fuse:       o.fuse,
	}
	for _, s := range strings.Split(o.sites, ",") {
		if s = strings.TrimSpace(s); s != "" {
			job.Sites = append(job.Sites, s)
		}
	}
	out.Registry = lap(&mark)

	report, err := runner.Run(ctx, job)
	if err != nil {
		return nil, none, err
	}
	lap(&mark) // Run's own time is the report's
	trash.Wait()
	out.Reset += lap(&mark)
	if o.fuse {
		if err := writeFused(ctx, filepath.Join(o.dir, "fused.jsonl"), report.Facts); err != nil {
			return nil, none, err
		}
	}
	out.FusedWrite = lap(&mark)
	use := usage{reads: store.ReadStats(), memory: readMemory().since(start)}
	out.StatsWrite = lap(&mark)
	use.outside = out
	if err := writeStats(filepath.Join(o.dir, "stats.json"), report, use); err != nil {
		return nil, none, err
	}
	use.outside.StatsWrite += lap(&mark)
	return report, use, nil
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
	if err := publish(kbPath, crawl.SeedKB.Write); err != nil {
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

// publish puts what write produces in path's place, atomically and
// durably, through a buffer of the size the shard files are written with.
func publish(path string, write func(io.Writer) error) error {
	return fsatomic.WriteStream(path, func(f io.Writer) error {
		w := bufio.NewWriterSize(f, 64<<10)
		if err := write(w); err != nil {
			return err
		}
		return w.Flush()
	})
}

// fusedChunk is how many facts one encoding task of writeFused takes:
// some 50 KB of fused.jsonl on the benchmark crawl, near the 64 KB buffer
// a single encoder wrote through. Four chunks are encoded or held at a
// time at two cores; chunks eight times this size raised the warm pass's
// peak resident set by 3 MB for no speed.
const fusedChunk = 256

// encodedChunk is one chunk of fused.jsonl, encoded.
type encodedChunk struct {
	lines []byte
	err   error
}

// writeFused writes the fused facts as JSON lines — encoding/json's
// encoding of ceres.FusedFact, byte for byte, through the harvest's own
// encoder — atomically. The facts are encoded a chunk at a time on every
// core (par.Ordered) and the chunks written in order, so the bytes are
// those of one encoder writing every fact in turn.
func writeFused(ctx context.Context, path string, facts []ceres.FusedFact) error {
	return fsatomic.WriteStream(path, func(w io.Writer) error {
		chunks := (len(facts) + fusedChunk - 1) / fusedChunk
		return par.Ordered(ctx, chunks, runtime.GOMAXPROCS(0),
			func(_, i int, c *encodedChunk) {
				c.lines, c.err = c.lines[:0], nil
				for j := i * fusedChunk; j < min(len(facts), (i+1)*fusedChunk) && c.err == nil; j++ {
					c.lines, c.err = jsonl.AppendFact(c.lines, &facts[j])
				}
			},
			func(_ int, c *encodedChunk) error {
				if c.err != nil {
					return c.err
				}
				_, err := w.Write(c.lines)
				return err
			})
	})
}

// writeStats writes the machine-readable run report — the Table-8
// numbers plus the per-stage wall-time breakdown, the page store's read
// counters and the run's allocation counters — next to the harvest
// output, atomically so a reader never sees a half-written report.
func writeStats(path string, rep *batch.Report, use usage) error {
	type stage struct {
		Stage string `json:"stage"`
		Ns    int64  `json:"ns"`
		// Overlapped marks the commit stage: its time runs beside the
		// workers' and is not part of what the other stages add up to.
		Overlapped bool `json:"overlapped,omitempty"`
	}
	var stages []stage
	rep.Stages.Each(func(name string, d time.Duration) {
		stages = append(stages, stage{Stage: name, Ns: d.Nanoseconds(), Overlapped: name == overlappedStage})
	})
	doc := map[string]any{
		"sites":          rep.Sites,
		"pages":          rep.Pages,
		"triples":        rep.Triples,
		"shards":         rep.Shards,
		"resumed":        rep.Resumed,
		"facts":          len(rep.Facts),
		"elapsedNs":      rep.Elapsed.Nanoseconds(),
		"stages":         stages,
		"training":       rep.Training,
		"commitBatches":  rep.CommitBatches,
		"manifestWrites": rep.ManifestWrites,
		"contexts":       rep.Contexts,
		"store":          use.reads,
		"memory":         use.memory,
		"outside":        use.outside,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(path, append(b, '\n'))
}

// overlappedStage is the one batch.StageDurations entry that runs beside
// the others instead of adding to them.
const overlappedStage = "commit"

// printReport writes the per-site harvest summary — the CLI's analogue of
// the paper's Table 8 — followed by the run's per-stage wall-time
// breakdown (worker-summed, so stages can exceed elapsed) and what the
// context cache, the page store, the heap, the fits, the trainings, the
// commit stage and the training verdicts did.
func printReport(rep *batch.Report, use usage, fused bool) {
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
		if d <= 0 {
			return
		}
		fmt.Printf(" %s %s", name, d.Round(1e5))
		if name == overlappedStage {
			fmt.Print(" (overlapped)")
		}
	})
	fmt.Println()
	if fused {
		fmt.Printf("fused: %d facts -> fused.jsonl\n", len(rep.Facts))
	}
	fmt.Println(outsideSummary(use.outside))
	fmt.Println(contextSummary(rep))
	fmt.Println(storeSummary(use.reads))
	fmt.Println(memorySummary(use.memory))
	fmt.Println(fitSummary(rep))
	if rep.Training.Sites > 0 {
		fmt.Println(trainingSummary(rep))
	}
	fmt.Printf("commits: %d batches, %d manifest writes\n", rep.CommitBatches, rep.ManifestWrites)
	fmt.Println(skipSummary(rep))
}

// outsideSummary is a line of the report: the invocation's time outside
// the run (stats.json "outside"), phase by phase.
func outsideSummary(t outsideTimes) string {
	r := func(d time.Duration) time.Duration { return d.Round(1e5) }
	return fmt.Sprintf("outside run: open %s, reset %s, kb digest %s, registry %s, fused write %s, stats write %s",
		r(t.Open), r(t.Reset), r(t.KBDigest), r(t.Registry), r(t.FusedWrite), r(t.StatsWrite))
}

// contextSummary is a line of the report: how many text fields the run
// scored, what share of them found their structural context in a worker's
// cache (and copied its probabilities), how many did not and ran the
// feature walk and the classifier, how many of those a full cache could
// not remember, and how many models' caches were dropped for another's.
func contextSummary(rep *batch.Report) string {
	c := rep.Contexts
	hit := 0.0
	if c.Fields > 0 {
		hit = 100 * float64(c.Fields-c.Misses) / float64(c.Fields)
	}
	return fmt.Sprintf("contexts: %d fields, %.1f%% hits, %d misses, %d uncached, %d evictions",
		c.Fields, hit, c.Misses, c.Uncached, c.Evictions)
}

// storeSummary is a line of the report: the bytes the process gunzipped
// out of the page store, the record bytes it handed on, and their ratio —
// 1.00x when every read takes whole segments, as a warm pass at the
// default shard and segment sizes does.
func storeSummary(st pagestore.ReadStats) string {
	ratio := 0.0
	if st.Delivered > 0 {
		ratio = float64(st.Inflated) / float64(st.Delivered)
	}
	return fmt.Sprintf("store: %.1f MB inflated, %.1f MB delivered, %.2fx", float64(st.Inflated)/1e6, float64(st.Delivered)/1e6, ratio)
}

// memorySummary is a line of the report: the bytes the run allocated and
// the garbage-collection cycles it ran, up to writing stats.json. What a
// run allocates and throws away is what the collector works through, and
// how often it runs.
func memorySummary(m memoryUse) string {
	return fmt.Sprintf("memory: %.1f MB allocated, %d GC cycles", float64(m.AllocBytes)/1e6, m.GCCycles)
}

// skipSummary is the report's last line: how many sites were skipped as
// unharvestable, and for how many of them that was read from the model
// store's verdict instead of found out by training again.
func skipSummary(rep *batch.Report) string {
	var skipped, stored int
	for _, sr := range rep.Sites {
		if sr.Skipped {
			skipped++
		}
		if sr.StoredVerdict {
			stored++
		}
	}
	return fmt.Sprintf("skipped: %d sites (%d from stored verdicts)", skipped, stored)
}

// trainingSummary is a line of the report of a run that trained: how many
// sites, how many of them were in training at the same moment, and how
// many of those held their parsed pages — one, whatever -workers is; that
// is the bound on training memory.
func trainingSummary(rep *batch.Report) string {
	t := rep.Training
	return fmt.Sprintf("training: %d sites, peak %d at once, %d holding pages", t.Sites, t.PeakTraining, t.PeakHolding)
}

// fitSummary is a line of the report: how many classifiers this run
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
