package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ceres"
)

// killSink commits through to the wrapped sink and cancels the run's
// context after a fixed number of commits — simulating a process killed
// while later shards are still mid-extraction.
type killSink struct {
	inner  TripleSink
	cancel context.CancelFunc
	after  int

	mu      sync.Mutex
	commits int
}

func (k *killSink) OpenShard(s Shard) (ShardWriter, error) {
	w, err := k.inner.OpenShard(s)
	if err != nil {
		return nil, err
	}
	return &killShard{sink: k, ShardWriter: w}, nil
}

func (k *killSink) Sync() error { return k.inner.Sync() }

// Replay forwards to the wrapped sink, so a killSink over a replayable
// sink can fuse.
func (k *killSink) Replay(ctx context.Context, shards []Shard, fn func(site string, t ceres.Triple) error) error {
	return k.inner.(Replayer).Replay(ctx, shards, fn)
}

type killShard struct {
	sink *killSink
	ShardWriter
}

func (w *killShard) Commit() error {
	err := w.ShardWriter.Commit()
	w.sink.mu.Lock()
	w.sink.commits++
	if w.sink.commits == w.sink.after {
		w.sink.cancel()
	}
	w.sink.mu.Unlock()
	return err
}

// harvestDirs is one complete set of run artifacts.
type harvestDirs struct {
	models, triples, checkpoint string
}

func newHarvestDirs(t *testing.T, base, name string) harvestDirs {
	t.Helper()
	root := filepath.Join(base, name)
	return harvestDirs{
		models:     filepath.Join(root, "models"),
		triples:    filepath.Join(root, "triples"),
		checkpoint: filepath.Join(root, "checkpoint.json"),
	}
}

// runHarvest executes one Run over the fixture into dirs, reopening every
// store the way a fresh process would. A non-nil cancelAfter kills the
// run after that many shard commits.
func runHarvest(t *testing.T, f *crawlFixture, dirs harvestDirs, job Job, killAfter int) (*Report, error) {
	t.Helper()
	store, err := ceres.NewDirStore(dirs.models)
	if err != nil {
		t.Fatal(err)
	}
	jsonl, err := NewJSONLSink(dirs.triples)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sink TripleSink = jsonl
	if killAfter > 0 {
		kctx, cancel := context.WithCancel(ctx)
		defer cancel()
		ctx = kctx
		sink = &killSink{inner: jsonl, cancel: cancel, after: killAfter}
	}
	reg, err := ceres.OpenRegistry(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Provider:       f.store,
		Sink:           sink,
		Registry:       reg,
		Store:          store,
		Pipeline:       f.pipeline,
		CheckpointPath: dirs.checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r.Run(ctx, job)
}

func factsJSON(t *testing.T, rep *Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep.Facts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dirContents maps file name to contents for every regular file in dir.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestCheckpointResumeByteIdentical is the subsystem's acceptance test:
// kill a batch run — after every possible number of shard commits, while
// other shards are mid-extraction, encoded or queued for the commit stage
// — resume it in a "fresh process", and the fused output and every
// committed shard file are byte-identical to an uninterrupted run, at any
// worker count. Runs under -race in CI.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	job := Job{
		ShardPages: 1,
		Fuse:       true,
		Fusion:     ceres.FusionOptions{Functional: map[string]bool{"releaseYear": true}},
	}
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base := t.TempDir()
			f := newCrawlFixture(t, base, fixtureSites)
			job := job
			job.Workers = workers

			// Reference: one uninterrupted run.
			full := newHarvestDirs(t, base, "full")
			wantRep, err := runHarvest(t, f, full, job, 0)
			if err != nil {
				t.Fatal(err)
			}
			if wantRep.Triples == 0 || len(wantRep.Facts) == 0 {
				t.Fatalf("uninterrupted run extracted nothing: %+v", wantRep)
			}
			want := factsJSON(t, wantRep)
			wantFiles := dirContents(t, full.triples)
			totalShards := wantRep.Shards

			// Every kill point at workers 1 and 4; at 8 the first, where the
			// most shards are in flight.
			kills := totalShards
			if workers == 8 {
				kills = 1
			}
			for kill := 1; kill <= kills; kill++ {
				res := newHarvestDirs(t, base, fmt.Sprintf("killed-%d", kill))
				if kill > 1 {
					// Only the first kill pays for training (and proves a
					// killed run's own models resume); the others start
					// from the reference run's models and verdicts.
					if err := os.CopyFS(res.models, os.DirFS(full.models)); err != nil {
						t.Fatal(err)
					}
				}
				goroutines := runtime.NumGoroutine()
				_, err = runHarvest(t, f, res, job, kill)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("kill %d: run returned %v, want context.Canceled", kill, err)
				}
				// The killed run's workers and commit stage are gone.
				waitGoroutines(t, goroutines)
				ck, err := os.ReadFile(res.checkpoint)
				if err != nil {
					t.Fatalf("kill %d: no checkpoint left: %v", kill, err)
				}
				var m manifest
				if err := json.Unmarshal(ck, &m); err != nil {
					t.Fatal(err)
				}
				partial := 0
				for _, d := range m.Done {
					partial += len(d)
				}
				// Everything handed to the commit stage before the kill is
				// recorded; the first kill must leave real work undone.
				if partial < kill || partial > totalShards || (kill == 1 && partial == totalShards) {
					t.Fatalf("kill %d left %d/%d shards done", kill, partial, totalShards)
				}
				noShardTemps(t, res.triples)

				if kill == 1 {
					// The kill/resume cycle must run on binary model
					// artifacts: DirStore publishes ceres.sitemodel/3 by
					// default, and resume reloads the checkpointed version
					// from those bytes.
					binModels := 0
					filepath.WalkDir(res.models, func(path string, d os.DirEntry, err error) error {
						if err == nil && !d.IsDir() && filepath.Ext(path) == ".bin" {
							binModels++
						}
						return nil
					})
					if binModels == 0 {
						t.Fatal("killed run published no .bin models; resume would not exercise the binary codec")
					}
				}

				// Resume in a fresh "process": new runner, reopened stores.
				gotRep, err := runHarvest(t, f, res, job, 0)
				if err != nil {
					t.Fatal(err)
				}
				if gotRep.Resumed != partial || gotRep.Shards != totalShards-partial {
					t.Fatalf("kill %d: resume took %d shards from the checkpoint and executed %d; %d of %d were recorded",
						kill, gotRep.Resumed, gotRep.Shards, partial, totalShards)
				}
				if got := factsJSON(t, gotRep); !bytes.Equal(got, want) {
					t.Fatalf("kill %d: fused output diverged after resume:\n got %s\nwant %s", kill, got, want)
				}

				// Every committed shard file matches too — no duplicates,
				// no gaps, identical bytes.
				gotFiles := dirContents(t, res.triples)
				if len(wantFiles) != len(gotFiles) {
					t.Fatalf("kill %d: shard files differ: %d vs %d", kill, len(gotFiles), len(wantFiles))
				}
				for name, wb := range wantFiles {
					if !bytes.Equal(gotFiles[name], wb) {
						t.Fatalf("kill %d: shard file %s differs after resume", kill, name)
					}
				}

				if kill > 1 {
					continue
				}
				// A third run is pure resume: nothing executes, fusion
				// replays the same bytes.
				again, err := runHarvest(t, f, res, job, 0)
				if err != nil {
					t.Fatal(err)
				}
				if again.Shards != 0 || again.Pages != 0 || again.ManifestWrites != 0 {
					t.Fatalf("idempotent re-run executed work: %+v", again)
				}
				if got := factsJSON(t, again); !bytes.Equal(got, want) {
					t.Fatal("pure-replay run diverged")
				}
			}
		})
	}
}

func mustPlan(t *testing.T, job Job, f *crawlFixture) *Plan {
	t.Helper()
	plan, err := PlanJob(job, f.store)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestCheckpointDoneAtScale marks a 5,000-shard site done in an order no
// run would — shuffled, every shard reported twice — and checks lookups
// along the way and that the manifest written at the end is, byte for
// byte, the sorted one.
func TestCheckpointDoneAtScale(t *testing.T) {
	const site, n = "big.example", 5000
	plan := &Plan{ShardPages: 8, Sites: []SitePlan{{Site: site, Pages: 8 * n, Shards: n}, {Site: "small.example", Pages: 3, Shards: 1}}}
	ck, err := loadCheckpoint("", plan) // in memory: the 10,000 marks below write nothing
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	for k, i := range order {
		if ck.isDone(site, i) {
			t.Fatalf("shard %d done before it was marked", i)
		}
		// Batch marking, as the commit stage does it: this shard and an
		// earlier one again.
		ck.markDone(Shard{Site: site, Index: i}, Shard{Site: site, Index: order[k/2]})
		if !ck.isDone(site, i) || ck.doneCount(site) != k+1 {
			t.Fatalf("after marking %d shards: isDone(%d)=%v, doneCount=%d", k+1, i, ck.isDone(site, i), ck.doneCount(site))
		}
	}
	if ck.isDone(site, n) || ck.isDone(site, -1) || ck.isDone("small.example", 0) {
		t.Fatal("a shard never marked reads as done")
	}
	ck.markDone(Shard{Site: "small.example", Index: 0})

	ck.path = filepath.Join(t.TempDir(), "checkpoint.json")
	if err := ck.save(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ck.path)
	if err != nil {
		t.Fatal(err)
	}
	want := newManifest(plan)
	for i := 0; i < n; i++ {
		want.Done[site] = append(want.Done[site], i)
	}
	want.Done["small.example"] = []int{0}
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(wantBytes, '\n')) {
		t.Fatalf("manifest differs from the sorted one (%d vs %d bytes)", len(got), len(wantBytes)+1)
	}
	// A reloaded manifest answers the same lookups.
	again, err := loadCheckpoint(ck.path, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !again.isDone(site, n-1) || !again.isDone(site, 0) || again.isDone(site, n) || again.doneCount(site) != n {
		t.Fatal("reloaded manifest lost shards")
	}
}

// TestCheckpointMismatch proves a manifest from a different plan refuses
// to resume instead of silently mixing outputs.
func TestCheckpointMismatch(t *testing.T) {
	base := t.TempDir()
	f := newCrawlFixture(t, base, []string{"blaxploitation.com"})
	dirs := newHarvestDirs(t, base, "run")
	if _, err := runHarvest(t, f, dirs, Job{ShardPages: 4}, 0); err != nil {
		t.Fatal(err)
	}
	// Same corpus, different shard size: the shard space is renumbered, so
	// the old Done entries are meaningless.
	if _, err := runHarvest(t, f, dirs, Job{ShardPages: 5}, 0); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
	}
}

// TestResumePinsModelWithoutTouchingSharedRegistry proves the two sides
// of the run-scoped registry contract: a resumed run extracts with the
// checkpoint-pinned model version even when the store and the shared
// serving registry have moved on to a newer one, and the shared registry
// is never rolled back to the pin.
func TestResumePinsModelWithoutTouchingSharedRegistry(t *testing.T) {
	base := t.TempDir()
	f := newCrawlFixture(t, base, []string{"kinobox.cz"})
	const site = "kinobox.cz"
	job := Job{ShardPages: 8, Workers: 2, Fuse: true}

	// Reference: uninterrupted run, private registry, its own dirs.
	full := newHarvestDirs(t, base, "full")
	wantRep, err := runHarvest(t, f, full, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := factsJSON(t, wantRep)

	// Killed run: trains v1, commits one shard, dies.
	res := newHarvestDirs(t, base, "resumed")
	if _, err := runHarvest(t, f, res, job, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v", err)
	}

	// The fleet moves on: a different model (tighter threshold, different
	// output) becomes v2 in the store and in the serving registry.
	store, err := ceres.NewDirStore(res.models)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := ceres.NewPipeline(f.kb, ceres.WithThreshold(0.99)).Train(context.Background(), f.pages[site])
	if err != nil {
		t.Fatal(err)
	}
	v2, err := store.Publish(site, strict)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 2 {
		t.Fatalf("expected version 2, got %d", v2)
	}
	shared, err := ceres.OpenRegistry(context.Background(), store) // boots at v2, like a live daemon
	if err != nil {
		t.Fatal(err)
	}

	// Resume with the shared registry wired in.
	jsonl, err := NewJSONLSink(res.triples)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{
		Provider:       f.store,
		Sink:           jsonl,
		Registry:       shared,
		Store:          store,
		Pipeline:       f.pipeline,
		CheckpointPath: res.checkpoint,
	})
	if err != nil {
		t.Fatal(err)
	}
	gotRep, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if gotRep.Sites[0].Version != 1 {
		t.Fatalf("resume served version %d, want pinned 1", gotRep.Sites[0].Version)
	}
	if got := factsJSON(t, gotRep); !bytes.Equal(got, want) {
		t.Fatal("pinned resume diverged from uninterrupted run")
	}
	// The serving fleet still holds v2 — the pin never leaked out.
	if e, ok := shared.Lookup(site); !ok || e.Version != 2 {
		t.Fatalf("shared registry rolled back: %+v", e)
	}
}
