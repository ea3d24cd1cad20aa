package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ceres"
	"ceres/batch"
)

// batchNames maps the runner's per-shard span names (batch.Config.Tracer)
// onto layers; "parent/child" entries win over bare ones.
var batchNames = map[string]string{
	"resolve":       "batch.shard.resolve",
	"train":         "ceres.Pipeline.Train",
	"train/parse":   "core.train.parse_pages",
	"cluster":       "cluster.ClusterPages",
	"annotate":      "core.train.annotate",
	"fit":           "core.train.fit",
	"extract":       "batch.shard.extract",
	"extract/parse": "core.shard.parse",
	"route":         "core.shard.route",
	"score":         "core.shard.score",
	"sink":          "batch.shard.sink",
	"checkpoint":    "batch.shard.checkpoint",
}

// inprocPass is one batch.Runner.Run in this process, wired the way
// cmd/ceres-batch wires it but at Workers: 1, so that the stages add up
// to wall-clock and what they leave over is visible.
type inprocPass struct {
	report  *batch.Report
	run     time.Duration // Runner.Run, fusion included (Report.Elapsed stops before it)
	mallocs uint64        // during Run
	models  *ceres.Registry
}

// runInproc runs a pass over the environment's pagestore with its
// models, shard output and checkpoint under dir. With a tracer the
// runner samples every shard into it.
func (b *bench) runInproc(ctx context.Context, e *harvestEnv, dir string, tracer *ceres.Tracer) (*inprocPass, error) {
	// -reset
	if err := os.Remove(filepath.Join(dir, "checkpoint.json")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := os.RemoveAll(filepath.Join(dir, "triples")); err != nil {
		return nil, err
	}
	kb, err := openKB(e.dir)
	if err != nil {
		return nil, err
	}
	store, err := ceres.NewDirStore(filepath.Join(dir, "models"))
	if err != nil {
		return nil, err
	}
	reg, err := ceres.OpenRegistry(ctx, store)
	if err != nil {
		return nil, err
	}
	sink, err := batch.NewJSONLSink(filepath.Join(dir, "triples"))
	if err != nil {
		return nil, err
	}
	runner, err := batch.NewRunner(batch.Config{
		Provider:       e.store,
		Sink:           sink,
		Registry:       reg,
		Store:          store,
		Pipeline:       ceres.NewPipeline(kb, ceres.WithThreshold(0.5)),
		CheckpointPath: filepath.Join(dir, "checkpoint.json"),
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	rep, err := runner.Run(ctx, batch.Job{ShardPages: 64, Workers: 1, TrainPages: 200, Fuse: true})
	if err != nil {
		return nil, err
	}
	run := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return &inprocPass{report: rep, run: run, mallocs: ms1.Mallocs - ms0.Mallocs, models: reg}, nil
}

// stagesOf adapts a report's stage totals to stageSpans.
func stagesOf(st batch.StageDurations) func(string) time.Duration {
	byName := make(map[string]time.Duration)
	st.Each(func(name string, d time.Duration) { byName[name] = d })
	return func(name string) time.Duration { return byName[name] }
}

// traceHarvest is the traced run of a harvest workload: the per-layer
// metrics. ceres-batch has no tracing switch, so the traced side is a
// batch.Runner in this process with a tracer configured, compared with
// the same pass without one; subprocess passes supply what only the
// real CLI shows (time outside Runner.Run, the stats.json stages).
func (b *bench) traceHarvest(ctx context.Context, spec harvestSpec, seed int64, seconds float64) (*runResult, []span, error) {
	log := newSpanLog()
	dir, err := os.MkdirTemp(b.work, spec.name+"-trace-")
	if err != nil {
		return nil, nil, err
	}
	env, err := b.setupHarvest(spec, seed, dir, log, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &runResult{Workload: spec.name, Seed: seed, Seconds: seconds, Traced: true}
	got := make(map[string]float64)

	// The real CLI, as the end-to-end run drives it, for a quarter of
	// the time.
	var last *passResult
	cliPasses := 0
	for start := time.Now(); cliPasses == 0 || time.Since(start) < secondsDur(seconds/4); cliPasses++ {
		if spec.cold {
			if err := env.wipe(); err != nil {
				return nil, nil, err
			}
		}
		if last, err = b.runPass(env, log, nil); err != nil {
			return nil, nil, err
		}
		if last.failure != "" {
			return nil, nil, fmt.Errorf("%s traced run: %s", spec.name, last.failure)
		}
		res.Attempted += 1 + int64(len(env.in.crawl.Sites))
		res.Failed += int64(last.siteErrs)
	}
	prf, err := env.score(&last.stats)
	if err != nil {
		return nil, nil, err
	}

	// The runner in process, untraced and traced passes alternating, for
	// half the time.
	inDir := filepath.Join(dir, "inproc")
	if err := os.MkdirAll(inDir, 0o755); err != nil {
		return nil, nil, err
	}
	traced, rounds, err := b.inprocRounds(ctx, env, spec, inDir, log, secondsDur(seconds/2), got)
	if err != nil {
		return nil, nil, err
	}

	if err := scanPagestore(ctx, env, log, got); err != nil {
		return nil, nil, err
	}

	// The layer probes, on a sample of each site's pages and the models
	// the in-process run published.
	in := probeInput{
		pages: make(map[string][]ceres.PageSource), models: make(map[string]*ceres.SiteModel),
		kbs: []*ceres.KB{env.in.crawl.SeedKB}, storeDir: filepath.Join(inDir, "models"), scratch: dir,
		pagesPerReq: 64,
		triples: func(yield func(string, ceres.Triple)) error {
			return harvested(filepath.Join(inDir, "triples"), yield)
		},
	}
	annotated := make(map[string]int)
	for _, site := range env.in.crawl.Sites {
		in.sites = append(in.sites, site.Name)
		for _, p := range site.Pages[:min(b.sz.probePages, len(site.Pages))] {
			in.pages[site.Name] = append(in.pages[site.Name], ceres.PageSource{ID: p.ID, HTML: p.HTML})
		}
		if e, ok := traced.models.Lookup(site.Name); ok {
			in.models[site.Name] = e.Model
			r, err := e.Model.Extract(ctx, in.pages[site.Name][:1])
			if err != nil {
				return nil, nil, err
			}
			annotated[site.Name] = r.AnnotatedPages
		}
	}
	if err := probeLayers(ctx, log, in); err != nil {
		return nil, nil, err
	}

	spans := log.snapshot()
	a := aggregate(spans)
	layerMetrics(a, got)
	modelShares(in.models, annotated, got)

	// Serve-side stages, from every pass that reported them (stats.json
	// of the CLI passes, Report.Stages of the traced in-process ones),
	// and the CLI's time outside the runner.
	const usec, msec = 1e3, 1e6
	passes := float64(cliPasses)
	if !spec.cold {
		passes++ // the set-up's cold pass left its spans too
	}
	staged := a["batch.Runner.Run(reported)"].n + float64(traced.report.Pages)*float64(rounds)
	got["ceres-batch.outside_runner_ms"] = float64(a["ceres-batch"].selfDur) / msec / passes
	got["core.parse_us_per_page"] = a["core.parse"].per(usec, staged)
	got["core.route_us_per_page"] = a["core.route"].per(usec, staged)
	got["core.score_us_per_page"] = a["core.score"].per(usec, staged)
	got["core.triples_per_page"] = float64(last.stats.Triples) / float64(last.stats.Pages)
	got["pagestore.ingest_pages_per_s"] = a["pagestore.Writer"].n / (float64(a["pagestore.Writer"].dur) / 1e9)

	res.Failed += int64(got["batch.sites_failed"])
	res.Samples = rounds
	if res.Metrics, err = fill(b.spec.PerLayer, got, serveOnly); err != nil {
		return nil, nil, err
	}
	b.judge(res, prf)
	return res, spans, nil
}

// inprocRounds runs the batch runner in this process for about budget,
// each round one pass without and one with a tracer, and reports the
// last traced pass, the batch.* metrics it gives and the tracing
// overhead over all rounds. A warm workload first needs its models: that
// cold pass is traced too, which is where a warm run's training spans
// come from.
func (b *bench) inprocRounds(ctx context.Context, env *harvestEnv, spec harvestSpec, dir string, log *spanLog, budget time.Duration, got map[string]float64) (*inprocPass, int, error) {
	newTracer := func() *ceres.Tracer {
		return ceres.NewTracer(ceres.TracerOptions{SampleEvery: 1, Capacity: 1 << 14})
	}
	adopt := func(tr *ceres.Tracer) {
		for _, root := range tr.Roots() {
			log.adopt(nil, nodeOf(root.JSON()), batchNames, 0)
		}
	}
	if !spec.cold {
		training := newTracer()
		if _, err := b.runInproc(ctx, env, dir, training); err != nil {
			return nil, 0, err
		}
		adopt(training)
	}
	var (
		plainWall, tracedWall time.Duration
		traced                *inprocPass
		shards                *ceres.Tracer
		rounds                = 0
	)
	for start := time.Now(); rounds == 0 || time.Since(start) < budget; rounds++ {
		for _, withTracer := range []bool{false, true} {
			if spec.cold {
				if err := os.RemoveAll(filepath.Join(dir, "models")); err != nil {
					return nil, 0, err
				}
			}
			var tr *ceres.Tracer
			if withTracer {
				tr = newTracer()
			}
			p, err := b.runInproc(ctx, env, dir, tr)
			if err != nil {
				return nil, 0, err
			}
			if !withTracer {
				plainWall += p.run
				continue
			}
			tracedWall += p.run
			traced, shards = p, tr
			log.mu.Lock()
			sp := log.add(nil, "batch.Runner.Run", int64(time.Since(log.t0)-p.run), p.run, float64(p.report.Pages))
			log.mu.Unlock()
			stageSpans(log, sp, stagesOf(p.report.Stages))
		}
	}
	adopt(shards) // the last traced pass's shard trees

	rep := traced.report
	got["batch.resolve_ms"] = ms(rep.Stages.Resolve)
	got["batch.train_ms"] = ms(rep.Stages.Train)
	got["batch.extract_ms"] = ms(rep.Stages.Extract)
	got["batch.sink_ms"] = ms(rep.Stages.Sink)
	got["batch.checkpoint_ms"] = ms(rep.Stages.Checkpoint)
	got["batch.fuse_ms"] = ms(rep.Stages.Fuse)
	accounted := rep.Stages.Resolve + rep.Stages.Extract + rep.Stages.Sink + rep.Stages.Checkpoint + rep.Stages.Fuse
	got["batch.unaccounted_pct"] = float64(traced.run-accounted) / float64(traced.run) * 100
	got["batch.shards"] = float64(rep.Shards)
	got["batch.allocs_per_page"] = float64(traced.mallocs) / float64(rep.Pages)
	var skipped, failed, trainedSites float64
	for _, s := range rep.Sites {
		switch {
		case s.Skipped:
			skipped++
		case s.Err != "":
			failed++
		case s.Trained:
			trainedSites++
		}
	}
	got["batch.sites_skipped"], got["batch.sites_failed"] = skipped, failed
	// Training is attempted for every site without a published model:
	// the ones it trained and the ones it then skipped as untrainable.
	got["batch.train_useful_share"] = 1
	if trainedSites+skipped > 0 {
		got["batch.train_useful_share"] = trainedSites / (trainedSites + skipped)
	}
	got["trace.overhead_pct"] = float64(tracedWall-plainWall) / float64(plainWall) * 100
	return traced, rounds, nil
}

// scanPagestore reads every site back as raw bytes, the way the runner's
// byte path does.
func scanPagestore(ctx context.Context, env *harvestEnv, log *spanLog, got map[string]float64) error {
	var pages, bytes float64
	sp := log.open(nil, "pagestore.PagesBytes")
	for _, site := range env.in.crawl.Sites {
		err := env.store.PagesBytes(ctx, site.Name, 0, -1, func(id, html []byte) error {
			pages++
			bytes += float64(len(html))
			return nil
		})
		if err != nil {
			return err
		}
	}
	dur := sp.end(pages)
	disk, err := dirBytes(filepath.Join(env.dir, "pages"))
	if err != nil {
		return err
	}
	got["pagestore.scan_pages_per_s"] = pages / dur.Seconds()
	got["pagestore.scan_mb_per_s"] = bytes / (1 << 20) / dur.Seconds()
	got["pagestore.disk_bytes_per_page"] = float64(disk) / pages
	return nil
}

func serveOnly(name string) bool {
	return hasAnyPrefix(name, "ceres-serve.", "loadgen.") ||
		name == "ceres.service.admission_us" || name == "ceres.service.lookup_us" ||
		name == "ceres.service.extract_us_per_page" || name == "ceres.service.fuse_us_per_page" ||
		name == "ceres.service.self_us_per_req"
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
