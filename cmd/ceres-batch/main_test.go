package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceres"
	"ceres/batch"
	"ceres/pagestore"
)

// TestGenerateAndHarvest wires the command's pieces end to end on a tiny
// crawl subset: generate into the page store, write the seed KB, run the
// batch loop, write the fused output — the loop main drives.
func TestGenerateAndHarvest(t *testing.T) {
	dir := t.TempDir()
	store, err := pagestore.Open(filepath.Join(dir, "pages"))
	if err != nil {
		t.Fatal(err)
	}
	kbPath := filepath.Join(dir, "kb.tsv")
	if err := generateCrawl(store, kbPath, 1, 0.004, 30); err != nil {
		t.Fatal(err)
	}
	// Idempotent: a second -gen over a populated store is a no-op.
	if err := generateCrawl(store, kbPath, 1, 0.004, 30); err != nil {
		t.Fatal(err)
	}
	sites, err := store.Sites()
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 33 {
		t.Fatalf("generated %d sites, want 33", len(sites))
	}

	// The pipeline is built as harvest builds it, from kb.tsv's text.
	kbText, err := os.ReadFile(kbPath)
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := ceres.NewPipelineTSV(kbText)
	if err != nil {
		t.Fatal(err)
	}

	modelStore, err := ceres.NewDirStore(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	sink, err := batch.NewJSONLSink(filepath.Join(dir, "triples"))
	if err != nil {
		t.Fatal(err)
	}
	runner, err := batch.NewRunner(batch.Config{
		Provider:       store,
		Sink:           sink,
		Store:          modelStore,
		Pipeline:       pipeline,
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Harvest a trainable subset to keep the test quick.
	rep, err := runner.Run(context.Background(), batch.Job{
		Sites:      []string{"kinobox.cz", "themoviedb.org", "boxofficemojo.com"},
		ShardPages: 16,
		Workers:    4,
		Fuse:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Triples == 0 || len(rep.Facts) == 0 {
		t.Fatalf("harvest extracted nothing: %+v", rep)
	}
	// fused.jsonl is, byte for byte, what a json.Encoder loop over the
	// facts writes — the format it has always had — for the run's facts,
	// and for as many again as fill several of the chunks it is encoded in
	// on every core.
	many := rep.Facts
	for len(many) < 3*fusedChunk+fusedChunk/2 {
		many = append(many, rep.Facts...)
	}
	fusedPath := filepath.Join(dir, "fused.jsonl")
	for _, facts := range [][]ceres.FusedFact{rep.Facts, many} {
		if err := writeFused(context.Background(), fusedPath, facts); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, fact := range facts {
			if err := enc.Encode(fact); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := os.ReadFile(fusedPath); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("fused.jsonl of %d facts (%d bytes, %v) differs from encoding/json's encoding of the facts (%d bytes)", len(facts), len(got), err, want.Len())
		}
	}
	// A fact with no JSON form — in any chunk — fails the write and leaves
	// nothing behind.
	badPath := filepath.Join(dir, "bad.jsonl")
	bad := append(append([]ceres.FusedFact{}, many[:2*fusedChunk+5]...), ceres.FusedFact{Subject: "s", Belief: math.NaN()})
	if err := writeFused(context.Background(), badPath, bad); err == nil {
		t.Fatal("a NaN belief was written")
	}
	if ents, _ := filepath.Glob(filepath.Join(dir, "*bad.jsonl*")); len(ents) != 0 {
		t.Fatalf("a refused write left %v", ents)
	}

	// The stats report carries the Table-8 numbers plus the per-stage
	// wall-time breakdown.
	statsPath := filepath.Join(dir, "stats.json")
	reads := store.ReadStats()
	if err := writeStats(statsPath, rep, usage{reads: reads}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Triples int `json:"triples"`
		Sites   []struct {
			Trained bool
			Fits    []ceres.FitStats
		} `json:"sites"`
		Stages []struct {
			Stage      string `json:"stage"`
			Ns         int64  `json:"ns"`
			Overlapped bool   `json:"overlapped"`
		} `json:"stages"`
		CommitBatches  int                 `json:"commitBatches"`
		ManifestWrites int                 `json:"manifestWrites"`
		Contexts       batch.ContextStats  `json:"contexts"`
		Store          pagestore.ReadStats `json:"store"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("stats.json malformed: %v", err)
	}
	if doc.Triples != rep.Triples || len(doc.Stages) != 12 {
		t.Fatalf("stats.json content wrong: %+v", doc)
	}
	// The commit stage's time runs beside the other stages' and says so;
	// its batches and manifest writes are counted, and fewer than shards.
	for _, s := range doc.Stages {
		if s.Overlapped != (s.Stage == "commit") {
			t.Errorf("stats.json stage %q overlapped=%v", s.Stage, s.Overlapped)
		}
	}
	if doc.CommitBatches == 0 || doc.CommitBatches != rep.CommitBatches || doc.ManifestWrites < doc.CommitBatches || doc.ManifestWrites > rep.Shards {
		t.Errorf("stats.json reports %d batches, %d manifest writes for %d shards", doc.CommitBatches, doc.ManifestWrites, rep.Shards)
	}
	// All three sites went through training, never two of them holding
	// their pages at once.
	if got, want := trainingSummary(rep), fmt.Sprintf("training: 3 sites, peak %d at once, 1 holding pages", rep.Training.PeakTraining); got != want || rep.Training.PeakTraining < 1 {
		t.Errorf("trainingSummary = %q, want %q", got, want)
	}
	// The context cache is counted: templated sites mostly hit, no site of
	// this size fills a cache, and the printed line says the same.
	c := rep.Contexts
	if c != doc.Contexts || c.Fields == 0 || c.Misses == 0 || c.Misses*2 > c.Fields || c.Uncached != 0 {
		t.Errorf("contexts %+v (stats.json %+v): want fields, fewer than half of them misses, none uncached", c, doc.Contexts)
	}
	if got, want := contextSummary(rep), fmt.Sprintf("contexts: %d fields, %.1f%% hits, %d misses, 0 uncached, %d evictions",
		c.Fields, 100*float64(c.Fields-c.Misses)/float64(c.Fields), c.Misses, c.Evictions); got != want {
		t.Errorf("contextSummary = %q, want %q", got, want)
	}
	// The page store's reads are counted: 16-page shards of 64-page
	// segments, and training's leading pages, inflate more than they use.
	if doc.Store != reads || reads.Delivered == 0 || reads.Inflated <= reads.Delivered {
		t.Errorf("store reads %+v (stats.json %+v): want more inflated than delivered", reads, doc.Store)
	}
	if got, want := storeSummary(reads), fmt.Sprintf("store: %.1f MB inflated, %.1f MB delivered, %.2fx",
		float64(reads.Inflated)/1e6, float64(reads.Delivered)/1e6, float64(reads.Inflated)/float64(reads.Delivered)); got != want {
		t.Errorf("storeSummary = %q, want %q", got, want)
	}
	if got, want := skipSummary(rep), "skipped: 2 sites (0 from stored verdicts)"; got != want {
		t.Errorf("skipSummary = %q, want %q", got, want)
	}
	// Every site trained this run reports its fits, and the printed
	// summary totals them.
	var fits, examples, rows int
	for _, s := range doc.Sites {
		if s.Trained != (len(s.Fits) > 0) {
			t.Errorf("stats.json site trained=%v with %d fits", s.Trained, len(s.Fits))
		}
		for _, f := range s.Fits {
			fits++
			examples += f.Examples
			rows += f.Rows
			if f.Rows == 0 || f.Rows > f.Examples || f.Iters == 0 || f.Evals <= f.Iters {
				t.Errorf("implausible fit stats %+v", f)
			}
		}
	}
	if fits == 0 || rows >= examples {
		t.Errorf("%d fits over %d examples in %d rows: templated sites should collapse", fits, examples, rows)
	}
	prefix := fmt.Sprintf("fits: %d trained, ", fits)
	suffix := fmt.Sprintf(" unconverged, %d examples in %d rows", examples, rows)
	if got := fitSummary(rep); !strings.HasPrefix(got, prefix) || !strings.HasSuffix(got, suffix) {
		t.Errorf("fitSummary = %q, want %q…%q", got, prefix, suffix)
	}
	byStage := map[string]int64{}
	for _, s := range doc.Stages {
		byStage[s.Stage] = s.Ns
	}
	for _, stage := range []string{"train", "extract", "read", "score", "fuse"} {
		if byStage[stage] <= 0 {
			t.Errorf("stats.json stage %q recorded no time: %v", stage, byStage)
		}
	}
}

// TestColdRunReportsMemory runs the command's harvest cold over two sites
// of a generated crawl and requires the bytes allocated and the GC cycles
// run, in stats.json and on the printed line, both to be non-zero.
func TestColdRunReportsMemory(t *testing.T) {
	o := options{dir: t.TempDir(), gen: true, seed: 1, scale: 0.02, maxSitePages: 24,
		sites: "blaxploitation.com,laborfilms.com", shardPages: 4, workers: 2, trainPages: 200, threshold: 0.5, fuse: true}
	rep, use, err := harvest(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Training.Sites == 0 {
		t.Fatal("the run trained no site")
	}
	b, err := os.ReadFile(filepath.Join(o.dir, "stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Memory memoryUse `json:"memory"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("stats.json malformed: %v", err)
	}
	m := doc.Memory
	if m != use.memory || m.AllocBytes == 0 || m.GCCycles == 0 {
		t.Fatalf("stats.json memory %+v, run %+v: want both counters non-zero and equal", m, use.memory)
	}
	if got, want := memorySummary(m), fmt.Sprintf("memory: %.1f MB allocated, %d GC cycles", float64(m.AllocBytes)/1e6, m.GCCycles); got != want {
		t.Errorf("memorySummary = %q, want %q", got, want)
	}
}

// TestShardIsOneSegment pins the three defaults that make a default shard
// read exactly one whole segment: the page store's segment size, the batch
// job's shard size and the -shard-pages flag.
func TestShardIsOneSegment(t *testing.T) {
	var o options
	o.register(flag.NewFlagSet("ceres-batch", flag.ContinueOnError))
	plan, err := batch.PlanJob(batch.Job{}, batch.NewMemProvider())
	if err != nil {
		t.Fatal(err)
	}
	if o.shardPages != pagestore.DefaultSegmentPages || plan.ShardPages != pagestore.DefaultSegmentPages {
		t.Fatalf("-shard-pages %d, batch default %d, segment %d: want all equal", o.shardPages, plan.ShardPages, pagestore.DefaultSegmentPages)
	}
}

// TestHarvestBadKB: a malformed kb.tsv fails the invocation with the
// parse error, before any pass has written a checkpoint, a shard or a
// model.
func TestHarvestBadKB(t *testing.T) {
	dir := t.TempDir()
	store, err := pagestore.Open(filepath.Join(dir, "pages"))
	if err != nil {
		t.Fatal(err)
	}
	kbPath := filepath.Join(dir, "kb.tsv")
	if err := generateCrawl(store, kbPath, 1, 0.004, 8); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(kbPath, []byte("P\tdirector\tfilm\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{dir: dir, shardPages: 4, workers: 2, trainPages: 200, threshold: 0.5, fuse: true}
	_, _, err = harvest(context.Background(), o)
	want := "reading seed KB " + kbPath + ": kb: line 1: P record needs 5 fields"
	if err == nil || err.Error() != want {
		t.Fatalf("harvest with a malformed kb.tsv = %v, want %q", err, want)
	}
	for _, name := range []string{"checkpoint.json", "triples", "models", "fused.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("a failed harvest left %s (%v)", name, err)
		}
	}
}

// TestWarmHarvestTrainsNothing: after a cold pass, a -reset pass over the
// same directory takes every model from the store and every untrainable
// site from its stored verdict — the training key of a pipeline that
// never parsed kb.tsv matches the one the cold pass stored verdicts
// under — trains nothing and fuses the same bytes.
func TestWarmHarvestTrainsNothing(t *testing.T) {
	o := options{dir: t.TempDir(), gen: true, seed: 1, scale: 0.004, maxSitePages: 30,
		sites: "kinobox.cz,themoviedb.org,boxofficemojo.com", shardPages: 16, workers: 2, trainPages: 200, threshold: 0.5, fuse: true}
	cold, _, err := harvest(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Training.Sites == 0 {
		t.Fatal("the cold pass trained no site")
	}
	if got, want := skipSummary(cold), "skipped: 2 sites (0 from stored verdicts)"; got != want {
		t.Fatalf("cold pass: %q, want %q", got, want)
	}
	fusedPath := filepath.Join(o.dir, "fused.jsonl")
	coldFused, err := os.ReadFile(fusedPath)
	if err != nil {
		t.Fatal(err)
	}

	o.gen, o.reset = false, true
	warm, _, err := harvest(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range warm.Sites {
		if sr.Trained || sr.Skipped != sr.StoredVerdict {
			t.Errorf("warm pass, site %s: trained=%v skipped=%v stored verdict=%v", sr.Site, sr.Trained, sr.Skipped, sr.StoredVerdict)
		}
	}
	if got, want := skipSummary(warm), "skipped: 2 sites (2 from stored verdicts)"; got != want {
		t.Errorf("warm pass: %q, want %q", got, want)
	}
	if warm.Training.Sites != 0 {
		t.Errorf("the warm pass trained %d sites", warm.Training.Sites)
	}
	if warmFused, err := os.ReadFile(fusedPath); err != nil || !bytes.Equal(warmFused, coldFused) {
		t.Errorf("the warm pass fused different bytes (%v)", err)
	}
}
