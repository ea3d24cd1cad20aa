package batch

import (
	"context"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"ceres"
	"ceres/internal/fsatomic"
)

// benchSites are the trainable long-tail sites the harvest benchmarks
// run over.
var benchSites = []string{"blaxploitation.com", "kinobox.cz", "laborfilms.com"}

// BenchmarkBatchHarvest measures batch extraction throughput (pages/sec)
// over a scaled websim crawl: pagestore streaming, shard planning,
// Service extraction, sink commits and the streaming fusion stage.
// Collect and JSONL run with models trained once outside the timed loop —
// the steady-state cost of a harvest is serving, not training. Collect
// keeps the triples in memory; JSONL is the path ceres-batch runs — JSONL
// encode, the commit stage's shard fsyncs and renames, directory flushes
// and checkpoint manifests, and fusion replaying the shard files — into a
// fresh directory each pass, as after -reset. JSONL also reports, counted
// at the filesystem seam, how many manifests and how many fsyncs (file and
// directory) a pass costs: a change that goes back to one manifest write
// per shard shows there before it shows in pages/s. Cold is the JSONL path
// with nothing published: every pass trains every site through a fresh
// pipeline at two workers, and reports how many sites were in training at
// once (at least 2: the dispatcher never parks a worker behind a site
// another one is training) and how many of those held their parsed pages
// (1: the pipeline's prepare gate) — the two numbers a cold harvest's wall
// clock and its peak memory come from. Every case reports the context
// caches a pass evicted: each shard's scan keeps only its own site's, so
// a worker that turns to the next site drops the last one's.
func BenchmarkBatchHarvest(b *testing.B) {
	f := newCrawlFixture(b, b.TempDir(), benchSites)
	job := Job{ShardPages: 16, Workers: 4, Fuse: true}

	// Warm-up run trains and publishes every trainable site into the
	// shared registry.
	reg := ceres.NewRegistry()
	warm, err := NewRunner(Config{Provider: f.store, Sink: NewCountingSink(), Registry: reg, Pipeline: f.pipeline})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := warm.Run(context.Background(), Job{ShardPages: 16, Workers: 4}); err != nil {
		b.Fatal(err)
	}
	jsonlInto := func(b *testing.B) Config {
		dir := b.TempDir()
		sink, err := NewJSONLSink(filepath.Join(dir, "triples"))
		if err != nil {
			b.Fatal(err)
		}
		return Config{Provider: f.store, Sink: sink, CheckpointPath: filepath.Join(dir, "checkpoint.json")}
	}

	for _, bc := range []struct {
		name   string
		job    Job
		config func(b *testing.B) Config
	}{
		{"Collect", job, func(*testing.B) Config {
			return Config{Provider: f.store, Sink: NewCollectSink(), Registry: reg}
		}},
		{"JSONL", job, func(b *testing.B) Config {
			cfg := jsonlInto(b)
			cfg.Registry = reg
			return cfg
		}},
		{"Cold", Job{ShardPages: 16, Workers: 2, Fuse: true}, func(b *testing.B) Config {
			cfg := jsonlInto(b)
			cfg.Pipeline = ceres.NewPipeline(f.kb, ceres.WithThreshold(0.5))
			return cfg
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pass := func() *Report {
				r, err := NewRunner(bc.config(b))
				if err != nil {
					b.Fatal(err)
				}
				rep, err := r.Run(context.Background(), bc.job)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Triples == 0 || len(rep.Facts) == 0 {
					b.Fatal("harvest extracted nothing")
				}
				return rep
			}
			// One throwaway pass of the exact timed configuration so the
			// measurement starts at steady state: scratch pools populated,
			// segment files in page cache, fusion path resident.
			pass()
			var manifests, fsyncs atomic.Int64
			defer fsatomic.SetHook(func(op fsatomic.Op) (int, error) {
				switch {
				case op.Kind == fsatomic.OpSync || op.Kind == fsatomic.OpSyncDir:
					fsyncs.Add(1)
				case op.Kind == fsatomic.OpRename && filepath.Base(op.To) == "checkpoint.json":
					manifests.Add(1)
				}
				return 0, nil
			})()
			pages, trained, peakTraining, peakHolding := 0, 0, 0, 0
			var evictions int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := pass()
				pages += rep.Pages
				trained += rep.Training.Sites
				peakTraining += rep.Training.PeakTraining
				peakHolding += rep.Training.PeakHolding
				evictions += rep.Contexts.Evictions
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(pages)/secs, "pages/s")
			}
			b.ReportMetric(float64(evictions)/float64(b.N), "evictions/op")
			if n := fsyncs.Load(); n > 0 {
				b.ReportMetric(float64(manifests.Load())/float64(b.N), "manifest-writes/op")
				b.ReportMetric(float64(n)/float64(b.N), "fsyncs/op")
			}
			if trained > 0 {
				b.ReportMetric(float64(peakTraining)/float64(b.N), "peak-sites-training/op")
				b.ReportMetric(float64(peakHolding)/float64(b.N), "peak-sites-holding-pages/op")
			}
		})
	}
}

// BenchmarkReplayFuse measures the fusion stage on its own: shard files
// already on disk → JSONLSink.Replay → Fuser, the serial tail of every
// ceres-batch pass. It reports triples/s and allocs/triple next to B/op.
func BenchmarkReplayFuse(b *testing.B) {
	f := newCrawlFixture(b, b.TempDir(), benchSites)
	sink, err := NewJSONLSink(filepath.Join(b.TempDir(), "triples"))
	if err != nil {
		b.Fatal(err)
	}
	job := Job{ShardPages: 16, Workers: 4}
	r, err := NewRunner(Config{Provider: f.store, Sink: sink, Pipeline: f.pipeline})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := r.Run(context.Background(), job)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := PlanJob(job, f.store)
	if err != nil {
		b.Fatal(err)
	}
	harvested := map[string]bool{}
	for _, sr := range rep.Sites {
		harvested[sr.Site] = sr.Done == sr.Shards && !sr.Skipped
	}
	var shards []Shard
	for _, sh := range plan.Shards {
		if harvested[sh.Site] {
			shards = append(shards, sh)
		}
	}

	pass := func() int {
		fuser := ceres.NewFuser(ceres.FusionOptions{})
		triples := 0
		if err := sink.Replay(context.Background(), shards, func(site string, t ceres.Triple) error {
			fuser.ObserveTriple(site, t)
			triples++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if len(fuser.Facts()) == 0 {
			b.Fatal("fusion produced no facts")
		}
		return triples
	}
	if pass() != rep.Triples {
		b.Fatalf("replayed a different number of triples than the %d harvested", rep.Triples)
	}
	triples := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		triples += pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(triples)/secs, "triples/s")
	}
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(triples), "allocs/triple")
}
