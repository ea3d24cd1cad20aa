package batch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"ceres"
	"ceres/internal/obs"
	"ceres/internal/par"
)

// ErrSinkNotReplayable reports a Job with Fuse set over a sink that
// cannot stream its output back; test with errors.Is.
var ErrSinkNotReplayable = errors.New("batch: fusion requires a sink implementing Replayer")

// Config wires a Runner to its collaborators.
type Config struct {
	// Provider supplies the pages (required).
	Provider PageProvider
	// Sink receives the extracted triples (required).
	Sink TripleSink
	// Registry optionally connects the run to a serving fleet: models are
	// *resolved* from it (a site already registered is served without
	// retraining) and models the run *trains* are published into it, so a
	// batch harvest feeds online serving. The run itself extracts through
	// a private run-scoped table, so neither a checkpoint-pinned older
	// version nor a mid-run external publish ever rolls back or perturbs
	// the shared fleet — and the fleet can hot-swap freely without
	// changing what a resumed run extracts with.
	Registry *ceres.Registry
	// Store persists newly trained models (DirStore.Publish) and resolves
	// the exact checkpointed version on resume; nil keeps models
	// process-local (a resumed process then retrains deterministically).
	Store ceres.ModelStore
	// Pipeline trains sites that have no published model; nil means such
	// sites fail with ErrNotTrained.
	Pipeline *ceres.Pipeline
	// CheckpointPath is the manifest file recording committed shards;
	// empty disables checkpointing (the run is not resumable).
	CheckpointPath string
	// Metrics instruments the runner (shards/pages/triples counters and
	// a live pages-per-second gauge, DESIGN.md §12); nil leaves it
	// uninstrumented.
	Metrics *ceres.Metrics
	// Tracer samples the run's span trees (DESIGN.md §13): per site the run
	// resolves a batch.site root (site) with a resolve child — train nested
	// under it, with a wait child (queueing for the pipeline's prepare
	// gate), held_ns (how long the site then held its parsed pages) and the
	// pipeline's parse/cluster/annotate/fit children; a site skipped on a
	// stored verdict carries skipped and verdict=stored instead; per
	// extracted shard a batch.shard root with extract (with its
	// parse/route/score stage spans) and sink children; per batch of the
	// commit stage a batch.commit root (shards, bytes) with writers, sync
	// and checkpoint children; and, for a job that fuses, one batch.fuse
	// root with replay (shards, triples, bytes read back) and facts
	// children. Nil traces nothing and costs nothing.
	Tracer *ceres.Tracer
}

// Runner executes batch harvest jobs: shard-parallel extraction through
// the serving stack, per-site training with store publish, checkpointed
// progress and a streaming fusion stage. A Runner is safe for one Run at
// a time.
type Runner struct {
	cfg     Config
	shared  *ceres.Registry // cfg.Registry; may be nil
	reg     *ceres.Registry // run-scoped serving table
	svc     *ceres.Service
	metrics *runnerMetrics // nil = uninstrumented
	// runStart (unix nanos; 0 = no run yet) and runPages feed the live
	// pages-per-second gauge, which is read from the metrics handler's
	// goroutine while a run is in flight.
	runStart atomic.Int64
	runPages atomic.Int64
}

// ContextStats is what the serve engine's context cache did over a run's
// extracted shards (ceres.ServeStats has the definitions): of Fields
// scored, Misses ran the feature walk and the classifier and the rest
// copied a remembered row; Uncached of the misses could not be
// remembered, and Evictions counts the models a worker forgot: each
// shard's scan keeps only its own site's.
type ContextStats struct {
	Fields    int64 `json:"fields"`
	Misses    int64 `json:"misses"`
	Uncached  int64 `json:"uncached"`
	Evictions int64 `json:"evictions"`
}

// StageDurations is a run's per-stage wall-time breakdown, summed across
// workers — so a stage's total may exceed the run's elapsed wall clock,
// and the ratio between the two is the stage's effective parallelism.
// Train is nested inside Resolve (resolving a site trains it when nothing
// is published) and TrainWait inside Train: the time Train calls queued
// for the pipeline's one-site prepare gate, which is waiting, not training
// — zero at one worker. Read, Parse, Route and Score are nested inside
// Extract: Read is the time a shard spent inside the provider between the
// pages it yielded (finding, inflating and framing them), the other three
// the serve-side stages.
// Sink is the workers' side of the durable path: encoding a shard into
// its temp file, and any time a worker was blocked because the commit
// stage had its bound of writers still to commit. Three stages are not
// worker sums. Checkpoint is how long Run itself waited, after the last
// worker stopped, for the commit stage to drain. Fuse is the fusion
// stage's wall time from the first shard replayed to the last fact
// resolved — it runs once, after everything else, and the replay's
// loader goroutines work inside that interval and are not added on top.
// Commit is the commit stage's own busy time (fsyncs, renames, manifest
// writes): it overlaps the workers, so it stands beside the
// others, not in their sum — at Workers 1, Resolve + Extract + Sink +
// Checkpoint + Fuse never exceeds Elapsed + Fuse, and what is missing
// from it is the run's unaccounted time.
type StageDurations struct {
	Resolve    time.Duration `json:"resolve"`
	Train      time.Duration `json:"train"`
	TrainWait  time.Duration `json:"trainWait"`
	Extract    time.Duration `json:"extract"`
	Read       time.Duration `json:"read"`
	Parse      time.Duration `json:"parse"`
	Route      time.Duration `json:"route"`
	Score      time.Duration `json:"score"`
	Sink       time.Duration `json:"sink"`
	Checkpoint time.Duration `json:"checkpoint"`
	Commit     time.Duration `json:"commit"`
	Fuse       time.Duration `json:"fuse"`
}

// Each visits the stages in pipeline order.
func (s StageDurations) Each(f func(name string, d time.Duration)) {
	f("resolve", s.Resolve)
	f("train", s.Train)
	f("train-wait", s.TrainWait)
	f("extract", s.Extract)
	f("read", s.Read)
	f("parse", s.Parse)
	f("route", s.Route)
	f("score", s.Score)
	f("sink", s.Sink)
	f("checkpoint", s.Checkpoint)
	f("commit", s.Commit)
	f("fuse", s.Fuse)
}

// runnerMetrics is the runner's instrument panel (all obs operations are
// nil-safe, matching the service's discipline).
type runnerMetrics struct {
	shards  *obs.Counter // ceres_batch_shards_done_total
	pages   *obs.Counter // ceres_batch_pages_total
	triples *obs.Counter // ceres_batch_triples_total
}

func (rm *runnerMetrics) shardDone(pages, triples int) {
	if rm == nil {
		return
	}
	rm.shards.Inc()
	rm.pages.Add(int64(pages))
	rm.triples.Add(int64(triples))
}

// NewRunner builds a runner over the configuration.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Provider == nil {
		return nil, fmt.Errorf("batch: config needs a Provider")
	}
	if cfg.Sink == nil {
		return nil, fmt.Errorf("batch: config needs a Sink")
	}
	reg := ceres.NewRegistry()
	r := &Runner{cfg: cfg, shared: cfg.Registry, reg: reg, svc: ceres.NewService(reg)}
	if m := cfg.Metrics; m != nil {
		r.metrics = &runnerMetrics{
			shards: m.Counter("ceres_batch_shards_done_total",
				"Shards extracted and committed by this run (resumed shards excluded)."),
			pages: m.Counter("ceres_batch_pages_total",
				"Pages extracted by batch runs."),
			triples: m.Counter("ceres_batch_triples_total",
				"Triples written to the sink by batch runs."),
		}
		m.GaugeFunc("ceres_batch_pages_per_second",
			"Live page throughput of the current (or last) run.",
			func() float64 {
				start := r.runStart.Load()
				if start == 0 {
					return 0
				}
				elapsed := time.Since(time.Unix(0, start)).Seconds()
				if elapsed <= 0 {
					return 0
				}
				return float64(r.runPages.Load()) / elapsed
			})
	}
	return r, nil
}

// Registry returns the registry the runner resolves models from and
// publishes trained models into: the configured shared one, or the
// run-scoped table when none was configured.
func (r *Runner) Registry() *ceres.Registry {
	if r.shared != nil {
		return r.shared
	}
	return r.reg
}

// siteState is one site of a run: where the dispatcher has it, and how its
// model resolved.
type siteState struct {
	site  string
	index int // in plan order
	pages int // of the site, from the plan
	tally siteTally

	// The dispatcher's, touched only by Run's own goroutine: a site is
	// unresolved until a worker is given it, resolving until that worker
	// reports back, and resolved from then on. pending is the shards no
	// earlier run committed, in plan order, consumed from the front.
	resolved bool
	pending  []Shard

	// The resolution's, written by the one worker that resolves the site
	// and read only after the dispatcher has been told it finished.
	version       int
	trained       bool
	fits          []ceres.FitStats // of the model this run trained
	skipReason    string           // non-empty: site cannot be harvested
	storedVerdict bool             // skipReason came from the store, not from training
	infraErr      error            // non-nil: abort the run
}

// siteTally accumulates one site's run counters under the runner mutex.
type siteTally struct {
	pages, triples, done, resumed int
	err                           string
}

// SiteReport is one site's slice of a Report.
type SiteReport struct {
	Site string
	// Pages and Shards describe the plan; Done counts shards committed
	// across all runs of the job, Resumed the ones this run skipped
	// because a previous run had already committed them.
	Pages, Shards, Done, Resumed int
	// Triples counts this run's written triples — or, when the fusion
	// stage ran, the all-runs total streamed out of the sink.
	Triples int
	// Version is the model version that served the site; Trained reports
	// whether this run trained it.
	Version int
	Trained bool
	// Fits reports the classifier fits behind a model this run trained,
	// one per trained template cluster; a fit with Converged false
	// stopped at its iteration cap.
	Fits []ceres.FitStats
	// Skipped marks a site recorded as unharvestable (Err holds the
	// reason, e.g. no seed-KB alignment). StoredVerdict reports that this
	// run did not find that out by training: the store held the verdict
	// of an earlier run over the same KB, configuration and page range.
	Skipped       bool
	StoredVerdict bool
	Err           string
}

// Report is the outcome of one Run.
type Report struct {
	// Sites reports per-site outcomes in plan order.
	Sites []SiteReport
	// Pages and Triples count this run's extraction work; Shards the
	// shards it executed; Resumed the shards restored from the
	// checkpoint.
	Pages, Triples, Shards, Resumed int
	// Facts is the fused output (Job.Fuse), aggregated by streaming every
	// committed shard through a ceres.Fuser in plan order.
	Facts []ceres.FusedFact
	// Training is what the run's Pipeline.Train calls did: Sites counts
	// them and Wait (also Stages.TrainWait) sums their queueing for the
	// prepare gate; the two peaks — calls in flight at once, and of those
	// holding parsed pages — are the pipeline's high-water marks.
	Training ceres.TrainStats
	// CommitBatches counts the batches the commit stage made durable and
	// ManifestWrites the checkpoint files it wrote: one per batch, plus a
	// last one when pins or skips were still unwritten at the end.
	CommitBatches, ManifestWrites int
	// Elapsed is the wall-clock time of the harvest proper: from the start
	// of Run until the last shard worker has stopped and the commit stage
	// has drained. It does not include the fusion stage, which runs after
	// that — a run's whole length is Elapsed + Stages.Fuse. Stages breaks
	// the work down per pipeline stage (summed across workers, so stage
	// totals can exceed Elapsed).
	Elapsed time.Duration
	Stages  StageDurations
	// Contexts is the serve engine's context-cache tally over the run.
	Contexts ContextStats
}

// Run executes one job to completion: plan, resume from the checkpoint,
// resolve each site's model and extract its remaining shards on Workers
// goroutines (dispatch, below) while the commit stage (commit.go) makes
// their output durable and records it, and (with Job.Fuse) stream the
// committed output through fusion. It returns ctx.Err() when cancelled — the checkpoint then holds every shard handed
// to the commit stage before the cancellation, and a later Run of the
// same job resumes there — and a non-nil error for infrastructure
// failures (sink, checkpoint, store or provider I/O). Either way every
// goroutine it started has exited and no shard writer is left open.
// Per-site failures (untrainable sites of a long-tail crawl) do not fail
// the run; they are reported per site.
func (r *Runner) Run(ctx context.Context, job Job) (*Report, error) {
	start := time.Now()
	// Refuse a job the sink cannot finish before harvesting for it.
	replayer, replayable := r.cfg.Sink.(Replayer)
	if job.Fuse && !replayable {
		return nil, fmt.Errorf("%w (%T)", ErrSinkNotReplayable, r.cfg.Sink)
	}
	r.runStart.Store(start.UnixNano())
	r.runPages.Store(0)
	plan, err := PlanJob(job, r.cfg.Provider)
	if err != nil {
		return nil, err
	}
	ck, err := loadCheckpoint(r.cfg.CheckpointPath, plan)
	if err != nil {
		return nil, err
	}

	// A plan lists each site's shards together, in site order.
	sites := make([]*siteState, len(plan.Sites))
	next := 0
	for i, sp := range plan.Sites {
		st := &siteState{site: sp.Site, index: i, pages: sp.Pages}
		for _, shard := range plan.Shards[next : next+sp.Shards] {
			if ck.isDone(shard.Site, shard.Index) {
				st.tally.resumed++
			} else {
				st.pending = append(st.pending, shard)
			}
		}
		next += sp.Shards
		sites[i] = st
	}
	trainedBefore := r.cfg.Pipeline.TrainStats()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	run := &runState{cancel: cancel}

	workers := job.workers()
	if workers > len(plan.Shards) {
		workers = len(plan.Shards)
	}
	if workers < 1 {
		workers = 1
	}
	cm := r.startCommitter(runCtx, ck, run, workers)
	r.dispatch(runCtx, job, ck, cm, sites, workers)
	// Whatever ended the workers, the commit stage finishes what they
	// handed over (or aborts it, after an error) before Run goes on.
	drainStart := time.Now()
	cm.drain()
	drained := time.Since(drainStart)

	if err := run.failure(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &Report{Elapsed: time.Since(start), CommitBatches: cm.batches, ManifestWrites: ck.writes, Training: r.cfg.Pipeline.TrainStats()}
	rep.Training.Sites -= trainedBefore.Sites
	rep.Training.Wait -= trainedBefore.Wait
	run.mu.Lock()
	rep.Stages, rep.Contexts = run.stages, run.contexts
	run.mu.Unlock()
	rep.Stages.Checkpoint = drained
	rep.Stages.TrainWait = rep.Training.Wait
	fuseTally := map[string]int{}
	if job.Fuse {
		fuseStart := time.Now()
		fsp := r.cfg.Tracer.StartRoot("batch.fuse")
		// Replay only committed shards, in plan order: the order is what
		// makes fused beliefs bit-reproducible run over run, interrupted
		// or not.
		var done []Shard
		for _, shard := range plan.Shards {
			if ck.isDone(shard.Site, shard.Index) {
				done = append(done, shard)
			}
		}
		fuser := ceres.NewFuser(job.Fusion)
		rsp := fsp.StartChild("replay")
		// A replay hands over a site's triples in a row: the tally counts
		// the run and adds it up when the site changes.
		triples, runSite, run := 0, "", 0
		tally := func() {
			if run > 0 {
				fuseTally[runSite] += run
				triples += run
			}
		}
		err := replayer.Replay(ctx, done, func(site string, t ceres.Triple) error {
			fuser.ObserveTriple(site, t)
			if site != runSite {
				tally()
				runSite, run = site, 0
			}
			run++
			return nil
		})
		tally()
		rsp.SetInt("shards", int64(len(done)))
		rsp.SetInt("triples", int64(triples))
		if m, ok := replayer.(interface{ replayedBytes() int64 }); ok {
			rsp.SetInt("bytes", m.replayedBytes())
		}
		rsp.EndErr(err)
		if err != nil {
			fsp.EndErr(err)
			return nil, err
		}
		csp := fsp.StartChild("facts")
		rep.Facts = fuser.Facts()
		csp.SetInt("facts", int64(len(rep.Facts)))
		csp.End()
		fsp.End()
		rep.Stages.Fuse = time.Since(fuseStart)
	}

	for i, sp := range plan.Sites {
		st, tally := sites[i], &sites[i].tally
		sr := SiteReport{
			Site:    sp.Site,
			Pages:   sp.Pages,
			Shards:  sp.Shards,
			Done:    ck.doneCount(sp.Site),
			Resumed: tally.resumed,
			Triples: tally.triples,
			Version: st.version,
			Trained: st.trained,
			Fits:    st.fits,
			Err:     tally.err,
		}
		if reason, ok := ck.skippedSite(sp.Site); ok {
			sr.Skipped = true
			sr.StoredVerdict = st.storedVerdict
			sr.Err = reason
		}
		if v, ok := ck.modelVersion(sp.Site); ok && sr.Version == 0 {
			sr.Version = v
		}
		if job.Fuse {
			sr.Triples = fuseTally[sp.Site]
		}
		rep.Sites = append(rep.Sites, sr)
		rep.Pages += tally.pages
		rep.Triples += tally.triples
		rep.Shards += tally.done
		rep.Resumed += tally.resumed
	}
	return rep, nil
}

// task is one unit of a worker's time: resolve a site's model, or extract
// one shard of a site whose model is resolved.
type task struct {
	st      *siteState
	resolve bool
	shard   Shard // when !resolve
}

// dispatch runs the job's sites to completion on workers goroutines. Run's
// goroutine is the dispatcher: it alone owns every site's phase and
// pending shards, hands tasks to whichever worker is free over an
// unbuffered channel, and hears of each finished resolution over another.
// The policy is resolution first, in plan order: a free worker is given
// the next site no worker has started; only when every site has been
// started is it given the next pending shard, in plan order, of a site
// that is resolved; and when there is neither while a resolution is in
// flight, the dispatcher waits for that to finish. Resolving is the long
// pole of a cold run — a training is up to half a second, most of it a
// fit that cannot be split, against a few milliseconds for a shard — and
// the shards, many and uniform, fill whatever tail the last fit leaves:
// longest task first. A worker therefore never waits for a site another
// worker is resolving, and concurrent trainings are bounded in memory by
// the pipeline's prepare gate, not here. Three invariants: a shard runs
// only after its site resolved; the resolution has pinned the site's
// model version in the checkpoint before that, so the manifest write that
// records the site's first shard carries its pin; and a site with no
// pending shard is never resolved. Once every site has resolved and none
// is resolving, the dispatcher tells the pipeline that no training is
// coming (Pipeline.ReleaseKB). None of this can change the output:
// shard files are named by (site, index) and fusion replays plan order.
// (Tasks are handed over by a goroutine, not pulled by the workers from a
// locked queue, on a measurement: workers that never park between shards
// leave the commit stage without a P until its queue bound blocks them —
// 5% of a warm pass; ROADMAP, "Measured".)
func (r *Runner) dispatch(ctx context.Context, job Job, ck *checkpoint, cm *committer, sites []*siteState, workers int) {
	tasks := make(chan task)
	done := make(chan *siteState) // resolutions that finished
	running := par.Go(ctx, workers, func(ctx context.Context, _ int) {
		for t := range tasks {
			if !t.resolve {
				r.runShard(ctx, cm, t.st, t.shard)
				continue
			}
			r.resolveSite(ctx, job, ck, cm.run, t.st)
			select {
			case done <- t.st:
			case <-ctx.Done():
			}
		}
	})
	// Two cursors make a pick O(1) amortised: toResolve is the first site
	// not yet started, toExtract the first that may still have a shard to
	// hand out. A resolution that finishes behind toExtract pulls it back.
	toResolve, toExtract, resolving := 0, 0, 0
	pick := func() (task, bool) {
		for ; toResolve < len(sites); toResolve++ {
			if st := sites[toResolve]; len(st.pending) > 0 {
				return task{st: st, resolve: true}, true
			}
		}
		for ; toExtract < len(sites); toExtract++ {
			if st := sites[toExtract]; st.resolved && len(st.pending) > 0 {
				return task{st: st, shard: st.pending[0]}, true
			}
		}
		return task{}, false
	}
	released := false
feed:
	for {
		t, ok := pick()
		if !released && toResolve == len(sites) && resolving == 0 {
			// Every site has resolved: nothing in this run trains again,
			// so the pipeline's seed KB index would only sit in memory
			// through the extraction tail and fusion.
			r.cfg.Pipeline.ReleaseKB()
			released = true
		}
		if !ok && resolving == 0 {
			break
		}
		out := tasks
		if !ok {
			out = nil // nothing to hand out until a resolution finishes
		}
		select {
		case out <- t:
			if t.resolve {
				toResolve++
				resolving++
			} else {
				t.st.pending = t.st.pending[1:]
			}
		case st := <-done:
			resolving--
			st.resolved = true
			if st.skipReason != "" || st.infraErr != nil {
				st.pending = nil
			}
			toExtract = min(toExtract, st.index)
		case <-ctx.Done():
			break feed
		}
	}
	close(tasks)
	running.Wait()
}

// resolveSite is a worker's part of one site: settle which model serves it
// (ensureModel), before any of its shards is extracted.
func (r *Runner) resolveSite(ctx context.Context, job Job, ck *checkpoint, run *runState, st *siteState) {
	if ctx.Err() != nil {
		st.skipReason = "run cancelled"
		return
	}
	sp := r.cfg.Tracer.StartRoot("batch.site")
	defer sp.End()
	sp.SetStr("site", st.site)
	rsp := sp.StartChild("resolve")
	t0 := time.Now()
	train := r.ensureModel(ceres.ContextWithSpan(ctx, rsp), job, ck, st)
	run.mu.Lock()
	run.stages.Resolve += time.Since(t0)
	run.stages.Train += train
	run.mu.Unlock()
	rsp.EndErr(st.infraErr)
	switch {
	case st.infraErr != nil:
		// An error a cancelled context explains is the cancellation, not
		// a failure of the run.
		if ctx.Err() == nil {
			run.fail(st.infraErr)
		}
	case st.skipReason != "":
		sp.SetStr("skipped", st.skipReason)
	}
}

// runShard is a worker's part of one shard of a resolved site: stream the
// shard's page bytes from the provider through the Service, encode the
// triples into a shard writer and hand that to the commit stage.
func (r *Runner) runShard(ctx context.Context, cm *committer, st *siteState, shard Shard) {
	if ctx.Err() != nil {
		return
	}
	run, tally := cm.run, &st.tally
	sp := r.cfg.Tracer.StartRoot("batch.shard")
	defer sp.End()
	sp.SetStr("site", shard.Site)
	sp.SetInt("shard", int64(shard.Index))
	// An error a cancelled context explains is the cancellation, not a
	// failure of the run: the commit stage aborts what it holds after a
	// failure, and must go on committing after a cancellation.
	fail := func(err error) {
		sp.SetErr(err)
		if ctx.Err() == nil {
			run.fail(err)
		}
	}
	esp := sp.StartChild("extract")
	extractStart := time.Now()
	// The provider's own time is what passes between the engine's turns.
	var read time.Duration
	resp, err := r.svc.ExtractScan(ctx, shard.Site, ceres.RequestOptions{},
		func(yield func(id string, html []byte) error) error {
			t := time.Now()
			err := r.cfg.Provider.PagesBytes(ctx, shard.Site, shard.Start, shard.Pages,
				func(id, html []byte) error {
					read += time.Since(t)
					err := yield(string(id), html)
					t = time.Now()
					return err
				})
			read += time.Since(t)
			return err
		})
	run.mu.Lock()
	run.stages.Extract += time.Since(extractStart)
	run.stages.Read += read
	switch {
	case err == nil:
		stats := &resp.Stats
		run.stages.Parse += stats.Stages.Parse
		run.stages.Route += stats.Stages.Route
		run.stages.Score += stats.Stages.Score
		run.contexts.Fields += int64(stats.Fields)
		run.contexts.Misses += int64(stats.ContextMisses)
		run.contexts.Uncached += int64(stats.ContextUncached)
		run.contexts.Evictions += int64(stats.CacheEvictions)
	case ctx.Err() == nil:
		tally.err = err.Error()
	}
	run.mu.Unlock()
	if err != nil {
		// Cancelled mid-shard, nothing is committed and a resume re-runs
		// it; otherwise the site's tally holds the error.
		esp.EndErr(err)
		sp.SetErr(err)
		return
	}
	esp.AddTimed("parse", resp.Stats.Stages.Parse)
	esp.AddTimed("route", resp.Stats.Stages.Route)
	esp.AddTimed("score", resp.Stats.Stages.Score)
	esp.End()
	sp.SetInt("pages", int64(resp.Stats.Pages))
	sp.SetInt("triples", int64(len(resp.Triples)))
	ssp := sp.StartChild("sink")
	sinkStart := time.Now()
	err = cm.handOver(ctx, pendingShard{shard: shard, tally: tally, pages: resp.Stats.Pages, triples: len(resp.Triples)}, resp.Triples)
	run.mu.Lock()
	run.stages.Sink += time.Since(sinkStart)
	run.mu.Unlock()
	ssp.EndErr(err)
	if err != nil {
		fail(err)
	}
}

// ensureModel resolves the model serving a site, in precedence order: the
// checkpointed version (reloaded from the store so a resume extracts with
// the exact artifact), the shared registry's current entry, the store's
// latest version, and finally training through the pipeline — unless the
// store holds the verdict that training these pages with this pipeline
// fails — publishing the new model to the store (durable version number)
// and the shared registry, or the new verdict to the store. Whatever wins
// lands in the run-scoped table the shards extract through; the shared
// registry only ever receives newly trained models, never a pinned
// rollback. Pins and skips are recorded in the checkpoint in memory; the
// commit stage writes them. It runs on the one worker the dispatcher gave
// the site to, beside other sites' resolutions and shards; a training it
// starts takes its turn at the pipeline's prepare gate, and the time it
// queues there is in the train stage (and reported as train-wait), which
// it returns.
func (r *Runner) ensureModel(ctx context.Context, job Job, ck *checkpoint, st *siteState) (train time.Duration) {
	site := st.site
	if reason, ok := ck.skippedSite(site); ok {
		st.skipReason = reason
		return
	}
	if v, ok := ck.modelVersion(site); ok && r.cfg.Store != nil {
		if e, ok := r.reg.Lookup(site); ok && e.Version == v {
			st.version = v
			return
		}
		m, err := r.cfg.Store.Open(site, v)
		if err != nil {
			st.infraErr = fmt.Errorf("batch: site %q: checkpointed model version %d: %w", site, v, err)
			return
		}
		r.reg.Publish(site, v, m)
		st.version = v
		return
	}
	if e, ok := r.reg.Lookup(site); ok {
		st.version = e.Version
		ck.setModelVersion(site, e.Version)
		return
	}
	if r.shared != nil {
		if e, ok := r.shared.Lookup(site); ok {
			r.reg.Publish(site, e.Version, e.Model)
			st.version = e.Version
			ck.setModelVersion(site, e.Version)
			return
		}
	}
	if r.cfg.Store != nil {
		m, v, err := r.cfg.Store.Latest(site)
		if err == nil {
			r.reg.Publish(site, v, m)
			st.version = v
			ck.setModelVersion(site, v)
			return
		}
		if !errors.Is(err, ceres.ErrModelNotFound) {
			st.infraErr = err
			return
		}
	}
	if r.cfg.Pipeline == nil {
		st.skipReason = ceres.ErrNotTrained.Error()
		ck.setSkipped(site, st.skipReason)
		return
	}
	// A training failure is a property of the pipeline (seed KB and
	// options) and of the leading pages it is given; that is the key a
	// verdict is stored and looked up under.
	trainOn := st.pages
	if job.TrainPages > 0 && job.TrainPages < trainOn {
		trainOn = job.TrainPages
	}
	verdictKey := fmt.Sprintf("%s/%d", r.cfg.Pipeline.TrainingKey(), trainOn)
	if r.cfg.Store != nil {
		reason, ok, err := r.cfg.Store.Untrainable(site, verdictKey)
		if err != nil {
			st.infraErr = err
			return
		}
		if ok {
			rsp := ceres.SpanFromContext(ctx)
			rsp.SetStr("skipped", reason)
			rsp.SetStr("verdict", "stored")
			st.skipReason, st.storedVerdict = reason, true
			ck.setSkipped(site, reason)
			return
		}
	}
	pages, err := readPages(ctx, r.cfg.Provider, site, trainOn)
	if err != nil {
		st.infraErr = err
		return
	}
	tsp := ceres.SpanFromContext(ctx).StartChild("train")
	tsp.SetInt("pages", int64(len(pages)))
	trainStart := time.Now()
	m, err := r.cfg.Pipeline.Train(ceres.ContextWithSpan(ctx, tsp), pages)
	train = time.Since(trainStart)
	tsp.EndErr(err)
	if err != nil {
		if ctx.Err() != nil {
			// Cancellation, not a site failure: leave no skip record so a
			// resume retrains.
			st.skipReason = "run cancelled"
			return
		}
		// Training failures are deterministic properties of the site and
		// seed KB (e.g. ErrNoAnnotations on a long-tail site): the
		// checkpoint records the skip for this job's resumes, the store
		// the verdict for every later run with the same inputs.
		st.skipReason = err.Error()
		ck.setSkipped(site, st.skipReason)
		if r.cfg.Store != nil {
			st.infraErr = r.cfg.Store.MarkUntrainable(site, verdictKey, st.skipReason)
		}
		return
	}
	version := 0
	if r.cfg.Store != nil {
		version, err = r.cfg.Store.Publish(site, m)
		if err != nil {
			st.infraErr = err
			return
		}
		r.reg.Publish(site, version, m)
	} else {
		version = r.reg.PublishNext(site, m)
	}
	if r.shared != nil {
		// Freshly trained models go straight into the serving fleet.
		r.shared.Publish(site, version, m)
	}
	st.version = version
	st.trained = true
	st.fits = m.Fits()
	ck.setModelVersion(site, version)
	return
}
