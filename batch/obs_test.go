package batch

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ceres"
)

// TestRunnerMetrics runs a small harvest through an instrumented runner
// and checks the batch counter families against the run report.
func TestRunnerMetrics(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com", "kinobox.cz"})
	sink := NewCountingSink()
	m := ceres.NewMetrics()
	r, err := NewRunner(Config{Provider: f.store, Sink: sink, Pipeline: f.pipeline, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), Job{Sites: f.sites, ShardPages: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shards == 0 || rep.Pages == 0 {
		t.Fatalf("trivial run: %+v", rep)
	}
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for series, want := range map[string]int{
		"ceres_batch_shards_done_total": rep.Shards,
		"ceres_batch_pages_total":       rep.Pages,
		"ceres_batch_triples_total":     rep.Triples,
	} {
		if !strings.Contains(text, series+" "+strconv.Itoa(want)) {
			t.Errorf("exposition missing %s %d:\n%s", series, want, text)
		}
	}
	// The throughput gauge is live after a run (elapsed > 0, pages > 0).
	if strings.Contains(text, "ceres_batch_pages_per_second 0\n") {
		t.Errorf("pages_per_second gauge stayed zero:\n%s", text)
	}
	if !strings.Contains(text, "ceres_batch_pages_per_second ") {
		t.Errorf("pages_per_second gauge missing:\n%s", text)
	}
}

// TestRunnerTraceAndStages runs a traced harvest and checks both views
// of the same work: the span trees — per resolved site batch.site →
// resolve[→train→wait/parse/cluster/annotate/fit], per extracted shard
// batch.shard → extract[→parse/route/score]/sink, per commit-stage batch
// batch.commit → writers/sync/checkpoint — and the report's aggregated
// stage breakdown.
func TestRunnerTraceAndStages(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com", "kinobox.cz"})
	tr := ceres.NewTracer(ceres.TracerOptions{SampleEvery: 1, Capacity: 64})
	r, err := NewRunner(Config{Provider: f.store, Sink: NewCountingSink(), Pipeline: f.pipeline, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), Job{Sites: f.sites, ShardPages: 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Aggregated stage breakdown: every executed stage accumulated time,
	// and the serve-side stages are a subset of extract.
	st := rep.Stages
	if st.Train <= 0 || st.Resolve < st.Train || st.Train < st.TrainWait {
		t.Errorf("train %v should be nonzero and nested in resolve %v, train-wait %v in train", st.Train, st.Resolve, st.TrainWait)
	}
	if st.Extract <= 0 || st.Score <= 0 || st.Parse <= 0 {
		t.Errorf("extract stage times missing: %+v", st)
	}
	if sub := st.Parse + st.Route + st.Score; sub > st.Extract {
		t.Errorf("serve stages %v exceed extract wall %v", sub, st.Extract)
	}
	if st.Sink <= 0 || st.Checkpoint <= 0 || st.Commit <= 0 {
		t.Errorf("sink/checkpoint/commit stage times missing: %+v", st)
	}
	var names []string
	var total time.Duration
	st.Each(func(name string, d time.Duration) {
		names = append(names, name)
		total += d
	})
	if len(names) != 12 || names[0] != "resolve" || names[2] != "train-wait" || names[4] != "read" || names[10] != "commit" || names[11] != "fuse" || total <= 0 {
		t.Errorf("Each visited %v (total %v)", names, total)
	}

	// Span trees: one batch.site root per site the run resolved, carrying
	// the resolve→train subtree with the training pipeline's own spans
	// hanging off it (a failed training run is traced too, and its root
	// says why the site is skipped); one batch.shard root per extracted
	// shard, with the extract/sink chain and nothing of the commit stage —
	// a skipped site's shards are never handed out; one batch.commit root
	// per batch the commit stage recorded, each saying how many shards it
	// made durable.
	var roots []*ceres.Span
	batches, batched := 0, 0
	for _, root := range tr.Roots() {
		if !root.Ended() {
			t.Fatalf("root %q not ended", root.Name())
		}
		if root.Name() != "batch.commit" {
			roots = append(roots, root)
			continue
		}
		batches++
		if root.Child("writers") == nil || root.Child("sync") == nil || root.Child("checkpoint") == nil {
			t.Fatalf("commit trace missing writers/sync/checkpoint: %v", root.JSON())
		}
		for _, a := range root.JSON().Attrs {
			if a.Key == "shards" {
				batched += int(a.Num)
			}
		}
	}
	if batches == 0 || batches != rep.CommitBatches || batched != rep.Shards {
		t.Errorf("%d batch.commit roots over %d shards, report says %d batches, %d shards", batches, batched, rep.CommitBatches, rep.Shards)
	}
	committed, trained, skipped := 0, 0, 0
	var fitSpans []ceres.FitStats
	for _, root := range roots {
		switch root.Name() {
		case "batch.shard":
			ex := root.Child("extract")
			if ex == nil || ex.Child("score") == nil || ex.Child("parse") == nil || ex.Child("route") == nil {
				t.Fatalf("shard trace without extract and its stage children: %v", root.JSON())
			}
			if root.Child("sink") == nil || root.Child("checkpoint") != nil || root.Child("resolve") != nil {
				t.Fatalf("shard trace should be extract, then sink: %v", root.JSON())
			}
			committed++
		case "batch.site":
			rsp := root.Child("resolve")
			if rsp == nil || len(root.Children()) != 1 {
				t.Fatalf("site trace should hold one resolve span: %v", root.JSON())
			}
			if strAttr(root, "site") == "" {
				t.Errorf("site trace does not say which site: %v", root.JSON())
			}
			if strAttr(root, "skipped") != "" {
				skipped++
			}
			tsp := rsp.Child("train")
			if tsp == nil {
				continue
			}
			trained++
			if tsp.Child("wait") == nil || tsp.Child("parse") == nil || tsp.Child("cluster") == nil || tsp.Child("annotate") == nil {
				t.Errorf("train span lost the gate's or the pipeline's spans: %+v", tsp.JSON())
			}
			if numAttr(tsp, "held_ns") <= 0 {
				t.Errorf("train span does not say how long it held its pages: %+v", tsp.JSON())
			}
			for _, c := range tsp.Children() {
				if c.Name() != "fit" {
					continue
				}
				n := func(key string) int { return int(numAttr(c, key)) }
				gradInf, err := strconv.ParseFloat(strAttr(c, "grad_inf"), 64)
				if err != nil {
					t.Errorf("fit span's grad_inf: %v", err)
				}
				fitSpans = append(fitSpans, ceres.FitStats{Examples: n("examples"), Rows: n("rows"), Columns: n("columns"),
					Iters: n("iters"), Evals: n("evals"), HessVecs: n("hess_vecs"), GradNorm: gradInf, Converged: n("converged") == 1})
				if c.Duration() <= 0 || c.Duration() > tsp.Duration() {
					t.Errorf("fit span of %v inside a %v training", c.Duration(), tsp.Duration())
				}
			}
		default:
			t.Fatalf("unexpected root %q", root.Name())
		}
	}
	if committed != rep.Shards {
		t.Errorf("%d full shard traces, want %d committed shards", committed, rep.Shards)
	}
	if trained != 2 || skipped != 1 {
		t.Errorf("%d train subtrees, %d skipped sites, want one training per site (both sites resolve, one fails)", trained, skipped)
	}
	if got := rep.Training; got.Sites != 2 || got.PeakTraining < 1 || got.PeakHolding != 1 || got.Wait != st.TrainWait {
		t.Errorf("report counts training as %+v", got)
	}
	// The fit counters are the same on the fit spans and in the report,
	// a fit's rows are the distinct ones among its examples, and its
	// columns the distinct ones among its features.
	var fits []ceres.FitStats
	for _, sr := range rep.Sites {
		fits = append(fits, sr.Fits...)
	}
	if len(fits) == 0 || !slices.Equal(fits, fitSpans) {
		t.Errorf("report fits %+v, fit spans %+v", fits, fitSpans)
	}
	for _, f := range fits {
		if f.Rows == 0 || f.Rows >= f.Examples || f.Columns == 0 || f.Iters == 0 || f.Evals <= f.Iters || f.HessVecs < f.Iters {
			t.Errorf("implausible fit %+v", f)
		}
	}
	if s := tr.Stats(); s.Started != s.Ended || s.DoubleEnds != 0 {
		t.Errorf("span lifecycle imbalance: %+v", s)
	}
}

// TestStagesAddUpAtOneWorker: with one worker the stages a run is made of
// are consecutive intervals of its wall clock — the worker's resolve,
// extract and sink, then Run's own wait for the commit stage, then fusion
// — so their sum can never exceed Elapsed + Fuse, however busy the commit
// stage was beside them. (The benchmark's batch.unaccounted_pct is what is
// left of that difference.) Inside extract, the provider's read and the
// engine's parse, route and score are disjoint intervals of one worker.
func TestStagesAddUpAtOneWorker(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com", "kinobox.cz"})
	dir := t.TempDir()
	sink, err := NewJSONLSink(filepath.Join(dir, "triples"))
	if err != nil {
		t.Fatal(err)
	}
	// The store keeps the untrainable site's verdict once the checkpoint
	// is gone.
	store, err := ceres.NewDirStore(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	checkpointPath := filepath.Join(dir, "checkpoint.json")
	r, err := NewRunner(Config{Provider: f.store, Sink: sink, Store: store, Pipeline: f.pipeline, CheckpointPath: checkpointPath})
	if err != nil {
		t.Fatal(err)
	}
	run := func() StageDurations {
		t.Helper()
		rep, err := r.Run(context.Background(), Job{ShardPages: 4, Workers: 1, Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		st := rep.Stages
		sum := st.Resolve + st.Extract + st.Sink + st.Checkpoint + st.Fuse
		if whole := rep.Elapsed + st.Fuse; sum > whole || sum < whole/2 {
			t.Errorf("stages sum to %v of a %v run: %+v", sum, whole, st)
		}
		if sub := st.Read + st.Parse + st.Route + st.Score; st.Read <= 0 || sub > st.Extract {
			t.Errorf("read %v + parse %v + route %v + score %v should fit in extract %v, read nonzero", st.Read, st.Parse, st.Route, st.Score, st.Extract)
		}
		if st.Commit <= 0 || rep.ManifestWrites == 0 || rep.ManifestWrites > rep.Shards/2+2 {
			t.Errorf("commit stage: %v busy, %d manifest writes for %d shards", st.Commit, rep.ManifestWrites, rep.Shards)
		}
		return st
	}
	if st := run(); st.Train <= 0 {
		t.Errorf("first run trained for %v", st.Train)
	}
	// The same Runner again, every shard to do over: the second run's
	// stages are its own, and its models are already registered (the
	// untrainable site's verdict stored).
	if err := os.Remove(checkpointPath); err != nil {
		t.Fatal(err)
	}
	if st := run(); st.Train != 0 {
		t.Errorf("second run of the runner trained for %v; its models were registered", st.Train)
	}
}

// TestRunnerFuseTrace checks the fusion stage's span tree — a batch.fuse
// root with replay and facts children carrying what was read back and
// what came out — and the two clocks around it: Elapsed stops before
// fusion, Stages.Fuse is the fusion stage's wall time.
func TestRunnerFuseTrace(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com", "kinobox.cz"})
	sink, err := NewJSONLSink(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := ceres.NewTracer(ceres.TracerOptions{SampleEvery: 1, Capacity: 64})
	r, err := NewRunner(Config{Provider: f.store, Sink: sink, Pipeline: f.pipeline, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := r.Run(context.Background(), Job{Sites: f.sites, ShardPages: 10, Workers: 4, Fuse: true})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var fuse *ceres.Span
	for _, root := range tr.Roots() {
		if root.Name() == "batch.fuse" {
			if fuse != nil {
				t.Fatal("two batch.fuse roots for one run")
			}
			fuse = root
		}
	}
	if fuse == nil || !fuse.Ended() {
		t.Fatalf("no ended batch.fuse root among %d roots", len(tr.Roots()))
	}
	attrs := func(sp *ceres.Span) map[string]int64 {
		out := map[string]int64{}
		if sp != nil {
			for _, a := range sp.JSON().Attrs {
				out[a.Key] = int64(a.Num)
			}
		}
		return out
	}
	var fileBytes int64
	for _, b := range dirContents(t, sink.dir) {
		fileBytes += int64(len(b))
	}
	replay := attrs(fuse.Child("replay"))
	if replay["shards"] != int64(rep.Shards) || replay["triples"] != int64(rep.Triples) || replay["bytes"] != fileBytes || fileBytes == 0 {
		t.Errorf("replay span %v, want %d shards, %d triples, %d bytes", replay, rep.Shards, rep.Triples, fileBytes)
	}
	if facts := attrs(fuse.Child("facts")); facts["facts"] != int64(len(rep.Facts)) || len(rep.Facts) == 0 {
		t.Errorf("facts span %v, want %d facts", facts, len(rep.Facts))
	}
	if rep.Stages.Fuse < fuse.Duration() || rep.Elapsed+rep.Stages.Fuse > wall {
		t.Errorf("Elapsed %v + Stages.Fuse %v should cover the fuse span %v and fit in the run's wall %v",
			rep.Elapsed, rep.Stages.Fuse, fuse.Duration(), wall)
	}
	if s := tr.Stats(); s.Started != s.Ended || s.DoubleEnds != 0 {
		t.Errorf("span lifecycle imbalance: %+v", s)
	}
}
