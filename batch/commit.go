package batch

import (
	"context"
	"sync"
	"time"

	"ceres"
	"ceres/internal/par"
)

// The commit stage takes everything that is not extraction off the
// workers' path. A worker encodes a shard into an open ShardWriter and
// hands it over; one goroutine — the only caller of ShardWriter.Commit,
// TripleSink.Sync and checkpoint.save during a run — commits each writer
// as it arrives (for the JSONL sink: flush, fsync, rename) and, per batch
// of them, makes the renames durable with one Sink.Sync, then records the
// whole batch with one manifest write. Four invariants hold it together:
//
//   - durable before named: a manifest file only ever names shards whose
//     output a Sync has already covered, so after any crash the
//     checkpoint's shards can be replayed;
//   - single writer: nothing else writes the manifest, and its readers
//     (isDone and friends) take a lock no I/O happens under;
//   - bounded: at most commitQueueFactor × Workers writers are open, so a
//     slow disk blocks the workers instead of growing memory or fds;
//   - drained on every exit: however the run ends, every writer handed
//     over is committed (cancellation) or aborted (error), the manifest
//     gets a last write for pins and skips no batch carried, and the
//     goroutine has exited before Run returns.

// commitQueueFactor × Workers bounds the shard writers that exist at any
// moment — being written by a worker, queued, or being committed. Each
// holds a file descriptor and an encode buffer. Two per worker lets a
// worker extract its next shard while its last one waits for the disk.
const commitQueueFactor = 2

// runState is the first infrastructure error of a run, shared by the
// workers and the commit stage; mu also guards the site tallies.
type runState struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
	// stages sums the workers' and the commit stage's time per stage, and
	// contexts what the shards' extract calls report about the serve
	// engine's context cache.
	stages   StageDurations
	contexts ContextStats
}

// fail records the run's first infrastructure error and cancels it.
func (s *runState) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
		s.cancel()
	}
	s.mu.Unlock()
}

func (s *runState) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// pendingShard is one extracted, encoded shard waiting to be made durable.
type pendingShard struct {
	shard          Shard
	w              ShardWriter
	tally          *siteTally
	pages, triples int
}

type committer struct {
	r   *Runner
	ck  *checkpoint
	run *runState
	// slots holds one token per open shard writer; queue has the same
	// capacity, so a worker holding a token never blocks sending.
	slots chan struct{}
	queue chan pendingShard
	stage *par.Group
	// batches counts the batches made durable (the goroutine's own, read
	// after drain).
	batches int
}

// startCommitter starts the commit stage. It runs until drain, whatever
// becomes of ctx: a cancelled run still commits what was handed over.
func (r *Runner) startCommitter(ctx context.Context, ck *checkpoint, run *runState, workers int) *committer {
	bound := commitQueueFactor * workers
	c := &committer{
		r: r, ck: ck, run: run,
		slots: make(chan struct{}, bound),
		queue: make(chan pendingShard, bound),
	}
	c.stage = par.Go(ctx, 1, func(context.Context, int) { c.loop() })
	return c
}

// handOver encodes a shard's triples into a writer of the sink and queues
// it for the commit stage. It blocks while the bound of open writers is
// reached — time the durable path costs the worker — and gives up only
// there, with ctx.Err(), when the run is cancelled; a shard that got its
// writer is always handed over. On an error nothing is left open.
func (c *committer) handOver(ctx context.Context, p pendingShard, triples []ceres.Triple) error {
	select {
	case c.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	w, err := c.r.cfg.Sink.OpenShard(p.shard)
	if err != nil {
		<-c.slots
		return err
	}
	for _, t := range triples {
		if err := w.Write(t); err != nil {
			w.Abort()
			<-c.slots
			return err
		}
	}
	p.w = w
	c.queue <- p
	return nil
}

// drain tells the commit stage no more shards are coming and waits for it
// to finish; call it after the last worker has stopped.
func (c *committer) drain() {
	close(c.queue)
	c.stage.Wait()
}

func (c *committer) loop() {
	var (
		batch []pendingShard
		bytes int64
		busy  time.Duration // committing the batch's writers
	)
	flush := func() {
		start := time.Now()
		c.record(batch, bytes, busy)
		c.run.mu.Lock()
		c.run.stages.Commit += busy + time.Since(start)
		c.run.mu.Unlock()
		batch, bytes, busy = batch[:0], 0, 0
	}
	for p := range c.queue {
		start := time.Now()
		bytes += c.commitWriter(p)
		busy += time.Since(start)
		// A batch is recorded when it is as large as the bound, or the run
		// ends: a writer is committed — its slot free again — the moment
		// it arrives, so no worker waits for a batch to fill, and a crash
		// costs at most one batch of shards extracted again.
		if batch = append(batch, p); len(batch) == cap(c.queue) {
			flush()
		}
	}
	if len(batch) > 0 {
		flush()
	}
	// Pins and skips that no batch carried (a skipped site commits no
	// shard) reach the file here, on success, cancellation and error alike.
	if err := c.ck.save(); err != nil {
		c.run.fail(err)
	}
}

// commitWriter terminates one writer and frees its slot: Commit, or Abort
// once the run has failed — a shard that is not recorded is extracted
// again on resume, so nothing is lost but the work. It returns the size
// of what it committed, when the writer knows it.
func (c *committer) commitWriter(p pendingShard) (bytes int64) {
	defer func() { <-c.slots }()
	if c.run.failure() != nil {
		p.w.Abort()
		return 0
	}
	if err := p.w.Commit(); err != nil {
		c.run.fail(err)
		return 0
	}
	if sized, ok := p.w.(interface{ writtenBytes() int64 }); ok {
		return sized.writtenBytes()
	}
	return 0
}

// record makes a batch of committed writers durable with one sink flush
// and then names the batch in the manifest with one write, in that order.
// It does neither once the run has failed: some writer of the batch may
// have been aborted.
func (c *committer) record(batch []pendingShard, bytes int64, writers time.Duration) {
	if c.run.failure() != nil {
		return
	}
	sp := c.r.cfg.Tracer.StartRoot("batch.commit")
	defer sp.End()
	sp.SetInt("shards", int64(len(batch)))
	sp.SetInt("bytes", bytes)
	sp.AddTimed("writers", writers)
	ssp := sp.StartChild("sync")
	err := c.r.cfg.Sink.Sync()
	ssp.EndErr(err)
	if err == nil {
		csp := sp.StartChild("checkpoint")
		shards := make([]Shard, len(batch))
		for i, p := range batch {
			shards[i] = p.shard
		}
		c.ck.markDone(shards...)
		err = c.ck.save()
		csp.EndErr(err)
	}
	if err != nil {
		sp.SetErr(err)
		c.run.fail(err)
		return
	}
	c.batches++
	c.run.mu.Lock()
	for _, p := range batch {
		p.tally.pages += p.pages
		p.tally.triples += p.triples
		p.tally.done++
	}
	c.run.mu.Unlock()
	for _, p := range batch {
		c.r.runPages.Add(int64(p.pages))
		c.r.metrics.shardDone(p.pages, p.triples)
	}
}
