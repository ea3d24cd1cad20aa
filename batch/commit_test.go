package batch

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ceres"
	"ceres/internal/fsatomic"
)

// TestCheckpointReadersDoNotWaitForIO stalls a manifest write in the
// filesystem seam and requires every reader and in-memory mutation of the
// checkpoint to return meanwhile: workers ask isDone at the start of each
// shard and must never queue behind a disk flush. The pin set during the
// stalled write is carried by the next one.
func TestCheckpointReadersDoNotWaitForIO(t *testing.T) {
	const site = "a.example"
	plan := &Plan{ShardPages: 8, Sites: []SitePlan{{Site: site, Pages: 80, Shards: 10}}}
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	ck, err := loadCheckpoint(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	stalled, release := make(chan struct{}), make(chan struct{})
	restore := fsatomic.SetHook(func(op fsatomic.Op) (int, error) {
		if op.Kind == fsatomic.OpWrite && strings.HasPrefix(filepath.Base(op.Path), ".checkpoint.json-") {
			close(stalled)
			<-release
		}
		return 0, nil
	})
	defer restore()

	ck.markDone(Shard{Site: site, Index: 0})
	saved := make(chan error, 1)
	go func() { saved <- ck.save() }()
	<-stalled
	read := make(chan bool, 1)
	go func() {
		ok := ck.isDone(site, 0) && !ck.isDone(site, 1) && ck.doneCount(site) == 1
		_, pinned := ck.modelVersion(site)
		_, skipped := ck.skippedSite(site)
		ck.setModelVersion(site, 3)
		ck.markDone(Shard{Site: site, Index: 1})
		read <- ok && !pinned && !skipped
	}()
	select {
	case ok := <-read:
		if !ok {
			t.Error("checkpoint answered wrongly during a manifest write")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint readers are blocked behind a stalled manifest write")
	}
	close(release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}
	restore()
	if err := ck.save(); err != nil {
		t.Fatal(err)
	}
	again, err := loadCheckpoint(path, plan)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := again.modelVersion(site); !ok || v != 3 || again.doneCount(site) != 2 || ck.writes != 2 {
		t.Fatalf("second save lost what changed during the first: version %d %v, %d done, %d writes", v, ok, again.doneCount(site), ck.writes)
	}
	if err := ck.save(); err != nil || ck.writes != 2 {
		t.Fatalf("a save with nothing new wrote again (%d writes, %v)", ck.writes, err)
	}
}

// probeSink wraps a sink and watches its writers: how many are open (no
// Commit or Abort yet) now and at most, how each ended, and optionally
// fails or blocks a Commit.
type probeSink struct {
	inner TripleSink
	// failAt > 0 makes the failAt-th Commit return errInjected instead of
	// committing (the writer is aborted underneath, as a failed commit
	// leaves nothing behind).
	failAt int
	// gate, when non-nil, blocks every Commit until it is closed.
	gate chan struct{}

	mu                            sync.Mutex
	open, maxOpen                 int
	opened, commits, aborts, seen int
}

var errInjected = errors.New("injected commit failure")

func (s *probeSink) OpenShard(sh Shard) (ShardWriter, error) {
	w, err := s.inner.OpenShard(sh)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.opened++
	s.open++
	s.maxOpen = max(s.maxOpen, s.open)
	s.mu.Unlock()
	return &probeShard{sink: s, ShardWriter: w}, nil
}

func (s *probeSink) Sync() error { return s.inner.Sync() }

func (s *probeSink) counts() (open, maxOpen, opened, commits, aborts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open, s.maxOpen, s.opened, s.commits, s.aborts
}

type probeShard struct {
	sink *probeSink
	ShardWriter
}

func (w *probeShard) Commit() error {
	s := w.sink
	if s.gate != nil {
		<-s.gate
	}
	s.mu.Lock()
	s.seen++
	fail := s.seen == s.failAt
	s.mu.Unlock()
	var err error
	if fail {
		w.ShardWriter.Abort()
		err = errInjected
	} else {
		err = w.ShardWriter.Commit()
	}
	s.mu.Lock()
	s.open--
	s.commits++
	s.mu.Unlock()
	return err
}

func (w *probeShard) Abort() error {
	w.sink.mu.Lock()
	w.sink.open--
	w.sink.aborts++
	w.sink.mu.Unlock()
	return w.ShardWriter.Abort()
}

// trainedRegistry harvests the fixture once into a throwaway sink and
// returns the registry holding its models, so that a test's own runs
// start extracting at once.
func trainedRegistry(t *testing.T, f *crawlFixture) *ceres.Registry {
	t.Helper()
	reg := ceres.NewRegistry()
	r, err := NewRunner(Config{Provider: f.store, Sink: NewCountingSink(), Registry: reg, Pipeline: f.pipeline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), Job{ShardPages: 16}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// noShardTemps fails the test if a shard temp file is left in dir.
func noShardTemps(t *testing.T, dir string) {
	t.Helper()
	if temps, _ := filepath.Glob(filepath.Join(dir, ".shard-*")); len(temps) != 0 {
		t.Errorf("temp files left behind: %v", temps)
	}
}

// TestCommitErrorAbortsPending injects a Commit error on the k-th shard:
// the run fails with that error, every writer that was opened is
// terminated — committed before the failure, aborted after it — no temp
// file is left, the manifest names only shards whose files exist, and
// every goroutine Run started has exited by the time it returns.
func TestCommitErrorAbortsPending(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), fixtureSites)
	reg := trainedRegistry(t, f)
	for _, failAt := range []int{1, 3, 10} {
		dir := t.TempDir()
		jsonl, err := NewJSONLSink(filepath.Join(dir, "triples"))
		if err != nil {
			t.Fatal(err)
		}
		sink := &probeSink{inner: jsonl, failAt: failAt}
		ckPath := filepath.Join(dir, "checkpoint.json")
		r, err := NewRunner(Config{Provider: f.store, Sink: sink, Registry: reg, CheckpointPath: ckPath})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		_, err = r.Run(context.Background(), Job{ShardPages: 1, Workers: 4})
		if !errors.Is(err, errInjected) {
			t.Fatalf("failAt=%d: Run returned %v, want the injected error", failAt, err)
		}
		for wait := time.Now(); runtime.NumGoroutine() > before; {
			if time.Since(wait) > 5*time.Second {
				t.Fatalf("failAt=%d: %d goroutines before the run, %d after it", failAt, before, runtime.NumGoroutine())
			}
			time.Sleep(time.Millisecond)
		}
		open, _, opened, commits, aborts := sink.counts()
		if open != 0 || opened != commits+aborts || commits != failAt {
			t.Errorf("failAt=%d: %d writers opened, %d committed, %d aborted, %d left open", failAt, opened, commits, aborts, open)
		}
		noShardTemps(t, jsonl.dir)
		files := dirContents(t, jsonl.dir)
		if len(files) != failAt-1 {
			t.Errorf("failAt=%d: %d shard files on disk, want the %d committed before the failure", failAt, len(files), failAt-1)
		}
		var m manifest
		if b, err := os.ReadFile(ckPath); err == nil {
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatalf("failAt=%d: manifest unreadable: %v", failAt, err)
			}
		}
		for site, done := range m.Done {
			for _, i := range done {
				if _, ok := files[shardFileName(Shard{Site: site, Index: i})]; !ok {
					t.Errorf("failAt=%d: manifest names %s/%d, which has no file", failAt, site, i)
				}
			}
		}
	}
}

// TestCommitQueueBound blocks every Commit and lets the workers run into
// the bound: they open writers until commitQueueFactor × Workers exist
// and then wait — a slow disk costs the run time, never memory or file
// descriptors. Cancelling with the queue full returns ctx.Err(), commits
// what was handed over, and a later run finishes the job.
func TestCommitQueueBound(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), fixtureSites)
	reg := trainedRegistry(t, f)
	const workers = 3
	job := Job{ShardPages: 1, Workers: workers}
	dir := t.TempDir()
	jsonl, err := NewJSONLSink(filepath.Join(dir, "triples"))
	if err != nil {
		t.Fatal(err)
	}
	sink := &probeSink{inner: jsonl, gate: make(chan struct{})}
	cfg := Config{Provider: f.store, Sink: sink, Registry: reg, CheckpointPath: filepath.Join(dir, "checkpoint.json")}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, job)
		done <- err
	}()
	const bound = commitQueueFactor * workers
	for wait := time.Now(); ; time.Sleep(time.Millisecond) {
		if open, _, _, _, _ := sink.counts(); open == bound {
			break
		}
		if time.Since(wait) > 10*time.Second {
			t.Fatalf("workers never filled the bound of %d open writers", bound)
		}
	}
	// Give workers that should be blocked every chance to open one more.
	time.Sleep(50 * time.Millisecond)
	if open, _, _, _, _ := sink.counts(); open != bound {
		t.Fatalf("%d writers open with commits blocked, bound is %d", open, bound)
	}
	cancel()
	close(sink.gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	open, maxOpen, opened, commits, aborts := sink.counts()
	if open != 0 || maxOpen != bound || commits != opened || aborts != 0 {
		t.Errorf("after cancel: %d open (max %d), %d opened, %d committed, %d aborted", open, maxOpen, opened, commits, aborts)
	}
	noShardTemps(t, jsonl.dir)

	// The resumed run executes only what the cancelled one had not handed
	// over, and the job ends complete.
	cfg.Sink = jsonl
	r, err = NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	harvestable := 0
	for _, sr := range rep.Sites {
		if !sr.Skipped {
			harvestable += sr.Shards
		}
	}
	if rep.Resumed != commits || rep.Shards != harvestable-commits || rep.Shards == 0 || len(dirContents(t, jsonl.dir)) != harvestable {
		t.Errorf("resume: %d resumed, %d executed of %d harvestable after %d commits", rep.Resumed, rep.Shards, harvestable, commits)
	}
}

// TestDurableBeforeNamed replays the recorded filesystem operations of a
// harvest and holds them to the order a power loss needs: a shard's data
// is fsynced before its rename, the rename is covered by a flush of
// triples/ before any manifest naming the shard is renamed into place,
// and a manifest is itself fsynced before its rename and its directory
// flushed after — before the next one is begun and before the run ends.
func TestDurableBeforeNamed(t *testing.T) {
	base := t.TempDir()
	f := newCrawlFixture(t, base, fixtureSites)
	dirs := newHarvestDirs(t, base, "run")
	type entry struct {
		op   fsatomic.Op
		done map[string][]int // of the manifest an OpRename publishes
	}
	var (
		mu  sync.Mutex
		log []entry
	)
	restore := fsatomic.SetHook(func(op fsatomic.Op) (int, error) {
		e := entry{op: op}
		if op.Kind == fsatomic.OpRename && op.To == dirs.checkpoint {
			var m manifest
			b, err := os.ReadFile(op.Path)
			if err == nil {
				err = json.Unmarshal(b, &m)
			}
			if err != nil {
				t.Errorf("manifest about to be published is unreadable: %v", err)
			}
			e.done = m.Done
		}
		mu.Lock()
		log = append(log, e)
		mu.Unlock()
		return 0, nil
	})
	rep, err := runHarvest(t, f, dirs, Job{ShardPages: 4, Workers: 4}, 0)
	restore()
	if err != nil {
		t.Fatal(err)
	}

	var (
		synced       = map[string]bool{} // temp files whose data is on disk
		renamed      = map[string]bool{} // shard files renamed, triples/ not flushed since
		durable      = map[string]bool{} // shard files a flush of triples/ covers
		manifests    int
		namedLast    int
		unflushedCkp bool // a manifest was renamed and its directory not flushed yet
	)
	for i, e := range log {
		switch op := e.op; {
		case op.Kind == fsatomic.OpSync:
			synced[op.Path] = true
		case op.Kind == fsatomic.OpRename && filepath.Dir(op.To) == dirs.triples:
			if !synced[op.Path] {
				t.Fatalf("op %d: %s renamed into place before its data was fsynced", i, op.To)
			}
			renamed[op.To] = true
		case op.Kind == fsatomic.OpSyncDir && op.Path == dirs.triples:
			for name := range renamed {
				durable[name] = true
			}
			clear(renamed)
		case op.Kind == fsatomic.OpCreate && op.Path == filepath.Join(filepath.Dir(dirs.checkpoint), ".checkpoint.json-*"):
			if unflushedCkp {
				t.Fatalf("op %d: a manifest write began before the last one's directory flush", i)
			}
		case op.Kind == fsatomic.OpRename && op.To == dirs.checkpoint:
			if !synced[op.Path] {
				t.Fatalf("op %d: manifest renamed into place before its data was fsynced", i)
			}
			manifests++
			namedLast = 0
			for site, done := range e.done {
				for _, idx := range done {
					namedLast++
					if name := filepath.Join(dirs.triples, shardFileName(Shard{Site: site, Index: idx})); !durable[name] {
						t.Fatalf("op %d: manifest names %s/%d before a flush of triples/ covered its rename", i, site, idx)
					}
				}
			}
			unflushedCkp = true
		case op.Kind == fsatomic.OpSyncDir && op.Path == filepath.Dir(dirs.checkpoint):
			unflushedCkp = false
		}
	}
	if unflushedCkp || len(renamed) != 0 {
		t.Errorf("the run ended with renames no directory flush covers (manifest: %v, shards: %d)", unflushedCkp, len(renamed))
	}
	if manifests != rep.ManifestWrites || manifests == 0 || namedLast != rep.Shards || len(durable) != rep.Shards {
		t.Errorf("%d manifests published (report: %d), the last naming %d of %d shards, %d shard files durable",
			manifests, rep.ManifestWrites, namedLast, rep.Shards, len(durable))
	}
	if manifests > rep.Shards/2+1 {
		t.Errorf("%d manifest writes for %d shards: batching is not batching", manifests, rep.Shards)
	}
}

// TestStoredVerdicts: the verdict of a failed training run outlives the
// checkpoint. After a -reset the site is skipped with the same report and
// no Pipeline.Train call; a changed TrainPages, a pipeline option that
// changes training and a grown KB each make the runner train again (and
// store the new verdict).
func TestStoredVerdicts(t *testing.T) {
	base := t.TempDir()
	const chart, good = "boxofficemojo.com", "kinobox.cz"
	f := newCrawlFixture(t, base, []string{chart, good})
	dirs := newHarvestDirs(t, base, "run")
	job := Job{ShardPages: 8, Workers: 2}
	// pass runs the job after a -reset and returns the chart site's report
	// and how often training ran.
	pass := func(job Job) (SiteReport, int) {
		t.Helper()
		if err := os.Remove(dirs.checkpoint); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dirs.triples); err != nil {
			t.Fatal(err)
		}
		store, err := ceres.NewDirStore(dirs.models)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := NewJSONLSink(dirs.triples)
		if err != nil {
			t.Fatal(err)
		}
		tr := ceres.NewTracer(ceres.TracerOptions{SampleEvery: 1, Capacity: 256})
		r, err := NewRunner(Config{Provider: f.store, Sink: sink, Store: store, Pipeline: f.pipeline, CheckpointPath: dirs.checkpoint, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		trains, stored := 0, 0
		for _, root := range tr.Roots() {
			rsp := root.Child("resolve")
			if rsp == nil {
				continue
			}
			if rsp.Child("train") != nil {
				trains++
			}
			attrs := map[string]string{}
			for _, a := range rsp.JSON().Attrs {
				attrs[a.Key] = a.Str
			}
			if attrs["verdict"] == "stored" {
				stored++
				if attrs["skipped"] == "" {
					t.Errorf("verdict hit without a skipped reason on the resolve span: %v", attrs)
				}
			}
		}
		var sr SiteReport
		for _, s := range rep.Sites {
			switch s.Site {
			case chart:
				sr = s
			case good:
				if s.Skipped || s.Done != s.Shards {
					t.Fatalf("trainable site not harvested: %+v", s)
				}
			}
		}
		if !sr.Skipped || sr.Err == "" || sr.Done != 0 {
			t.Fatalf("chart site report = %+v, want skipped", sr)
		}
		if (stored == 1) != sr.StoredVerdict || (sr.StoredVerdict && rep.Stages.Train != 0) {
			t.Fatalf("StoredVerdict=%v with %d verdict spans and %v of training", sr.StoredVerdict, stored, rep.Stages.Train)
		}
		return sr, trains
	}

	first, trains := pass(job)
	if first.StoredVerdict || trains != 2 {
		t.Fatalf("cold pass: stored=%v, %d training runs; want both sites trained", first.StoredVerdict, trains)
	}
	second, trains := pass(job)
	if !second.StoredVerdict || trains != 0 || second.Err != first.Err {
		t.Fatalf("warm pass: stored=%v, %d training runs, reason %q (cold pass said %q)", second.StoredVerdict, trains, second.Err, first.Err)
	}
	invalidated := func(what string, job Job) {
		t.Helper()
		if sr, trains := pass(job); sr.StoredVerdict || trains != 1 {
			t.Errorf("%s: stored=%v, %d training runs; want the site trained again", what, sr.StoredVerdict, trains)
		}
		if sr, trains := pass(job); !sr.StoredVerdict || trains != 0 {
			t.Errorf("pass after %s: stored=%v, %d training runs; want the new verdict used", what, sr.StoredVerdict, trains)
		}
	}
	fewer := job
	fewer.TrainPages = 10
	invalidated("a changed TrainPages", fewer)
	f.pipeline = ceres.NewPipeline(f.kb, ceres.WithThreshold(0.5), ceres.WithMinAnnotations(4))
	invalidated("a pipeline option", fewer)
	if err := f.kb.AddTriple(ceres.KBTriple{Subject: f.kb.EntityIDs()[0], Predicate: f.kb.Ontology().Names()[0], Object: ceres.LiteralObject("one more fact")}); err != nil {
		t.Fatal(err)
	}
	invalidated("a grown KB", fewer)
}
