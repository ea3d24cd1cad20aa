package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ceres"
	"ceres/internal/core"
)

// dispatchSites are four trainable sites and the chart-only one, which
// trains into a skip.
var dispatchSites = []string{"blaxploitation.com", "laborfilms.com", "spicyonion.com", "soundtrackcollector.com", "boxofficemojo.com"}

// interval is a span's (or a derived) stretch of the run's clock.
type interval struct {
	site       string
	start, end time.Time
}

func (a interval) overlaps(b interval) bool { return a.start.Before(b.end) && b.start.Before(a.end) }

func spanInterval(site string, sp *ceres.Span) interval {
	return interval{site: site, start: sp.Start(), end: sp.Start().Add(sp.Duration())}
}

func strAttr(sp *ceres.Span, key string) string {
	for _, a := range sp.JSON().Attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

func numAttr(sp *ceres.Span, key string) int64 {
	for _, a := range sp.JSON().Attrs {
		if a.Key == key {
			return a.Num
		}
	}
	return 0
}

// TestDispatchFromSpans reads the dispatcher's and the prepare gate's
// guarantees off a two-worker cold run's span trees alone: sites train at
// the same time; no two of them hold parsed pages at the same time; no
// shard is extracted before its site is resolved; and a resumed run
// resolves no site whose shards are all checkpointed.
func TestDispatchFromSpans(t *testing.T) {
	base := t.TempDir()
	f := newCrawlFixture(t, base, dispatchSites)
	dirs := newHarvestDirs(t, base, "run")
	job := Job{ShardPages: 8, Workers: 2}
	pass := func() (*Report, []*ceres.Span) {
		t.Helper()
		store, err := ceres.NewDirStore(dirs.models)
		if err != nil {
			t.Fatal(err)
		}
		sink, err := NewJSONLSink(dirs.triples)
		if err != nil {
			t.Fatal(err)
		}
		tr := ceres.NewTracer(ceres.TracerOptions{SampleEvery: 1, Capacity: 1024})
		r, err := NewRunner(Config{Provider: f.store, Sink: sink, Store: store, Pipeline: f.pipeline, CheckpointPath: dirs.checkpoint, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		return rep, tr.Roots()
	}

	rep, roots := pass()
	trainable := 0
	for _, sr := range rep.Sites {
		if sr.Trained {
			trainable++
		}
	}
	if trainable < 3 {
		t.Fatalf("fixture trained %d sites, want at least 3", trainable)
	}
	var trains, holds []interval
	resolvedAt := map[string]time.Time{}
	for _, root := range roots {
		if root.Name() != "batch.site" {
			continue
		}
		site, rsp := strAttr(root, "site"), root.Child("resolve")
		resolvedAt[site] = spanInterval(site, rsp).end
		tsp := rsp.Child("train")
		if tsp == nil {
			t.Fatalf("%s resolved without training on a cold run", site)
		}
		trains = append(trains, spanInterval(site, tsp))
		// The site held its parsed pages from the end of its wait for the
		// gate for held_ns.
		held := time.Duration(numAttr(tsp, "held_ns"))
		acquired := spanInterval(site, tsp.Child("wait")).end
		if held <= 0 {
			t.Fatalf("%s: train span without held_ns", site)
		}
		holds = append(holds, interval{site: site, start: acquired, end: acquired.Add(held)})
	}
	if len(trains) != len(dispatchSites) {
		t.Fatalf("%d sites resolved, want %d", len(trains), len(dispatchSites))
	}
	together := false
	for i, a := range trains {
		for _, b := range trains[i+1:] {
			together = together || a.overlaps(b)
		}
	}
	if !together {
		t.Error("no two train spans were ever open at once: sites still train one after another")
	}
	for i, a := range holds {
		for _, b := range holds[i+1:] {
			if a.overlaps(b) {
				t.Errorf("%s and %s held parsed pages at the same time", a.site, b.site)
			}
		}
	}
	if rep.Training.PeakTraining < 2 || rep.Training.PeakHolding != 1 {
		t.Errorf("report counts training as %+v, want several at once and one holding pages", rep.Training)
	}
	extracted := 0
	for _, root := range roots {
		if root.Name() != "batch.shard" {
			continue
		}
		extracted++
		site := strAttr(root, "site")
		at, ok := resolvedAt[site]
		if !ok || root.Child("extract").Start().Before(at) {
			t.Errorf("a shard of %s was extracted before the site was resolved", site)
		}
	}
	if extracted != rep.Shards || extracted == 0 {
		t.Errorf("%d shard traces for %d extracted shards", extracted, rep.Shards)
	}

	// Resumed: every harvested site has all its shards checkpointed.
	again, roots := pass()
	if again.Shards != 0 || again.Resumed != rep.Shards {
		t.Fatalf("resumed run executed %d shards and resumed %d of %d", again.Shards, again.Resumed, rep.Shards)
	}
	for _, root := range roots {
		if root.Name() != "batch.site" {
			continue
		}
		for _, sr := range again.Sites {
			if sr.Site == strAttr(root, "site") && sr.Done == sr.Shards {
				t.Errorf("%s has nothing left to extract and was resolved anyway", sr.Site)
			}
		}
	}
}

// TestCancelWhileQueuedForGate cancels a run at the moment one site holds
// the prepare gate and a second one is queued behind it. Neither training
// finished and neither failed: the run must leave no skip record in the
// checkpoint and no verdict in the store, and the resumed run trains both
// sites and fuses what an uninterrupted run fuses.
func TestCancelWhileQueuedForGate(t *testing.T) {
	base := t.TempDir()
	f := newCrawlFixture(t, base, []string{"blaxploitation.com", "laborfilms.com"})
	job := Job{ShardPages: 8, Workers: 2, Fuse: true}
	want, err := runHarvest(t, f, newHarvestDirs(t, base, "reference"), job, 0)
	if err != nil {
		t.Fatal(err)
	}

	dirs := newHarvestDirs(t, base, "cancelled")
	f.pipeline = ceres.NewPipeline(f.kb, ceres.WithThreshold(0.5))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := core.SetTrainingProbe(func(phase string, _ []*core.Page) {
		// The first site to parse its pages still holds the gate here.
		// Wait until the other worker's Train call is in flight — it can
		// only be queued — then cancel the run.
		if phase != "parsed" || ctx.Err() != nil {
			return
		}
		for f.pipeline.TrainStats().PeakTraining < 2 {
			runtime.Gosched()
		}
		cancel()
	})
	store, err := ceres.NewDirStore(dirs.models)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := NewJSONLSink(dirs.triples)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Config{Provider: f.store, Sink: sink, Store: store, Pipeline: f.pipeline, CheckpointPath: dirs.checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(ctx, job)
	restore()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
	if st := f.pipeline.TrainStats(); st.Sites != 1 {
		t.Errorf("%d sites passed the gate, want the one that was preparing when the run was cancelled", st.Sites)
	}
	// A run with nothing to record may write no manifest at all.
	if b, err := os.ReadFile(dirs.checkpoint); err == nil {
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil || len(m.Skipped) != 0 || len(m.Done) != 0 {
			t.Errorf("the checkpoint (%v) records skips %v and shards %v; a cancellation is neither", err, m.Skipped, m.Done)
		}
	} else if !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if verdicts, _ := filepath.Glob(filepath.Join(dirs.models, "*", "untrainable.json")); len(verdicts) != 0 {
		t.Errorf("the cancellation was stored as a training verdict: %v", verdicts)
	}

	got, err := runHarvest(t, f, dirs, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range got.Sites {
		if !sr.Trained || sr.Skipped || sr.Done != sr.Shards {
			t.Errorf("resumed run did not train and harvest %s: %+v", sr.Site, sr)
		}
	}
	if !bytes.Equal(factsJSON(t, got), factsJSON(t, want)) {
		t.Error("resumed run fused different facts than an uninterrupted one")
	}
}
