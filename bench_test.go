package ceres

// This file provides one testing.B benchmark per table and figure of the
// paper's evaluation section (run them with `go test -bench=.`), plus
// micro-benchmarks of the pipeline's hot stages. The table/figure
// benchmarks run at the reduced "quick" scale so the whole suite finishes
// in minutes; `go run ./cmd/ceres-bench` regenerates the full-scale
// numbers.

import (
	"bytes"
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"ceres/internal/bench"
	"ceres/internal/core"
	"ceres/internal/kb"
	"ceres/internal/websim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.QuickConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := e.Run(context.Background(), cfg)
		if r.Text == "" {
			b.Fatalf("%s produced no report", id)
		}
	}
}

func BenchmarkTable1SWDEGeneration(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2KBConstruction(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkTable3SWDEComparison(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkTable4PerPredicate(b *testing.B)      { benchExperiment(b, "table4") }
func BenchmarkFigure4BookOverlap(b *testing.B)      { benchExperiment(b, "figure4") }
func BenchmarkFigure5AnnotationBudget(b *testing.B) { benchExperiment(b, "figure5") }
func BenchmarkTable5IMDbExtraction(b *testing.B)    { benchExperiment(b, "table5") }
func BenchmarkTable6AnnotationQuality(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7TopicID(b *testing.B)           { benchExperiment(b, "table7") }
func BenchmarkFigure6ConfidenceSweep(b *testing.B)  { benchExperiment(b, "figure6") }
func BenchmarkTable8CrawlBreakdown(b *testing.B)    { benchExperiment(b, "table8") }
func BenchmarkTable9TopPredicates(b *testing.B)     { benchExperiment(b, "table9") }
func BenchmarkAblations(b *testing.B)               { benchExperiment(b, "ablate") }

// ---------------------------------------------------------------- micro

// pipelineFixture builds a 60-page movie site once for the stage
// micro-benchmarks.
type pipelineFixture struct {
	sources []core.PageSource
	pages   []*core.Page
	kb      *KB
}

var fixture *pipelineFixture

// parsePages parses sources on the caller's goroutine.
func parsePages(tb testing.TB, src []core.PageSource) []*core.Page {
	tb.Helper()
	pages, err := core.ParsePages(context.Background(), src, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return pages
}

func getFixture(b *testing.B) *pipelineFixture {
	b.Helper()
	if fixture != nil {
		return fixture
	}
	w := websim.NewWorld(websim.WorldConfig{Seed: 42})
	site := websim.BuildMovieSite(w, w.Films[:60],
		websim.MovieSiteStyle{Layout: "table", Prefix: "bm", Language: "en", Recommendations: true},
		"bench-site", 7)
	f := &pipelineFixture{kb: websim.BuildKB(w, websim.FullCoverage(), 3)}
	for _, p := range site.Pages {
		f.sources = append(f.sources, core.PageSource{ID: p.ID, HTML: p.HTML})
	}
	f.pages = parsePages(b, f.sources)
	fixture = f
	return f
}

// annotate runs the annotation stage over the fixture's pages.
func (f *pipelineFixture) annotate(b *testing.B) *core.AnnotationResult {
	b.Helper()
	ann, err := core.Annotate(context.Background(), f.pages, f.kb.BuildIndex(), core.TopicOptions{}, core.RelationOptions{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	return ann
}

// BenchmarkStageParse measures page preparation — one stream pass and
// the copy of its text fields; its B/op is about what a prepared page
// holds.
func BenchmarkStageParse(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.PreparePage(f.sources[i%len(f.sources)].ID, f.sources[i%len(f.sources)].HTML)
	}
}

// BenchmarkStageTopicIdentification measures Algorithm 1 over the site —
// the indexed path (kb.Index interning + worker pool) that the pipeline
// runs. The kb.Index is built once per KB and cached, like the compiled
// serve model.
func BenchmarkStageTopicIdentification(b *testing.B) {
	f := getFixture(b)
	ix := f.kb.BuildIndex() // one-time per-KB cost, excluded like model Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IdentifyTopics(context.Background(), f.pages, ix, core.TopicOptions{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageAnnotate measures Algorithms 1+2 over the site down the
// indexed path the pipeline runs.
func BenchmarkStageAnnotate(b *testing.B) {
	f := getFixture(b)
	ix := f.kb.BuildIndex() // one-time per-KB cost, excluded like model Compile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Annotate(context.Background(), f.pages, ix, core.TopicOptions{}, core.RelationOptions{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageAnnotateSingleWorker isolates the algorithmic win from
// the worker-pool win: the indexed path pinned to one goroutine.
func BenchmarkStageAnnotateSingleWorker(b *testing.B) {
	f := getFixture(b)
	ix := f.kb.BuildIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Annotate(context.Background(), f.pages, ix,
			core.TopicOptions{}, core.RelationOptions{}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// crawlKBText is the benchmark crawl's seed KB at seed 1 as a kb.tsv
// holds it (1.3 MB): what a ceres-batch pass reads.
func crawlKBText(b *testing.B) []byte {
	var buf bytes.Buffer
	// A site filter naming no roster site generates the seed KB alone.
	if err := websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Sites: []string{"no-such-site"}}).SeedKB.Write(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// liveBytes is the heap live after a collection.
func liveBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// BenchmarkReadKB parses the benchmark crawl's seed KB (crawlKBText) and
// reports, beside its time and allocations, live-MB: the heap the parsed
// KB holds, read after runtime.GC with the KB reachable and then not.
func BenchmarkReadKB(b *testing.B) {
	text := crawlKBText(b)
	var k *KB
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if k, err = ReadKB(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	held := liveBytes()
	runtime.KeepAlive(k) // and no further
	b.ReportMetric((held-liveBytes())/1e6, "live-MB")
}

// BenchmarkKBDigest digests the seed KB BenchmarkReadKB parses, as
// NewPipelineTSV does on every harvest: kb.DigestTSV, one pass over the
// records that builds no KB.
func BenchmarkKBDigest(b *testing.B) {
	text := crawlKBText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kb.DigestTSV(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKBBuildIndex builds the annotation index of the KB
// BenchmarkReadKB parses — the one-time cost a harvest's first Train pays
// after parsing kb.tsv — and reports, beside its time and allocations,
// live-MB: the heap the index holds once the KB it was built from is
// unreachable, as a NewPipelineTSV pipeline holds it while it trains.
func BenchmarkKBBuildIndex(b *testing.B) {
	text := crawlKBText(b)
	var ix *kb.Index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, err := ReadKB(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ix = k.BuildIndex()
	}
	b.StopTimer()
	held := liveBytes()
	runtime.KeepAlive(ix) // and no further
	b.ReportMetric((held-liveBytes())/1e6, "live-MB")
}

// BenchmarkStageTrain measures feature extraction + L-BFGS training.
func BenchmarkStageTrain(b *testing.B) {
	f := getFixture(b)
	ann := f.annotate(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fz := core.NewFeaturizer(f.pages, core.FeatureOptions{})
		ds, classes := core.BuildExamples(f.pages, ann, fz, core.TrainOptions{Seed: 1})
		fz.Freeze()
		if _, _, err := core.TrainModel(ds, classes, fz, core.TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSite measures the full pipeline on the 60-page site:
// train a site model, then extract the same pages through it.
func BenchmarkEndToEndSite(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sm, err := core.TrainSite(context.Background(), f.sources, f.kb.BuildIndex(), core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sm.ExtractSources(context.Background(), f.sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeExtract measures the train-once/extract-forever path of
// the public API: each iteration pays only parse+route+classify over the
// fixture's pages.
func BenchmarkServeExtract(b *testing.B) {
	f := getFixture(b)
	pages := make([]PageSource, len(f.sources))
	for i, s := range f.sources {
		pages[i] = PageSource{ID: s.ID, HTML: s.HTML}
	}
	p := NewPipeline(f.kb)

	b.Run("TrainOnce", func(b *testing.B) {
		model, err := p.Train(context.Background(), pages)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := model.Extract(context.Background(), pages); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pages))*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
}

// BenchmarkStreamServe measures the serve engine alone — the stream pass
// over one trained site model's 60 pages, below the public API.
func BenchmarkStreamServe(b *testing.B) {
	f := getFixture(b)
	sm, err := core.TrainSite(context.Background(), f.sources, f.kb.BuildIndex(),
		core.Config{Train: core.TrainOptions{Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exts, err := sm.ExtractSources(context.Background(), f.sources)
		if err != nil {
			b.Fatal(err)
		}
		if len(exts) == 0 {
			b.Fatal("no extractions")
		}
	}
	b.ReportMetric(float64(len(f.sources))*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
}

// BenchmarkServiceExtract measures the request-scoped serving stack —
// Registry lookup, per-request threshold, stats — end to end, both for
// one caller and for many concurrent requests against one hot model (the
// daemon's steady state).
func BenchmarkServiceExtract(b *testing.B) {
	f := getFixture(b)
	pages := make([]PageSource, len(f.sources))
	for i, s := range f.sources {
		pages[i] = PageSource{ID: s.ID, HTML: s.HTML}
	}
	model, err := NewPipeline(f.kb).Train(context.Background(), pages)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	reg.Publish("bench", 1, model)
	svc := NewService(reg)
	th := 0.75
	req := ExtractRequest{Site: "bench", Pages: pages, Options: RequestOptions{Threshold: &th}}

	b.Run("Sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := svc.Extract(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pages))*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
	// SequentialMetrics is Sequential with full instrumentation wired
	// (WithMetrics: per-site counters, latency histogram, inflight
	// gauge): beside Sequential it reads the observability tax — the
	// acceptance bar is within 2% of the uninstrumented path.
	b.Run("SequentialMetrics", func(b *testing.B) {
		msvc := NewService(reg, WithMetrics(NewMetrics()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := msvc.Extract(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pages))*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
	// SequentialTraced is Sequential with a tracer attached but sampling
	// off — the fleet's default posture. The nil-span fast path must make
	// this allocation-identical to Sequential (asserted exactly in
	// TestServiceSampledOutAllocParity; beside Sequential it reads the
	// residual time tax, which must stay within noise).
	b.Run("SequentialTraced", func(b *testing.B) {
		tsvc := NewService(reg, WithTracer(NewTracer(TracerOptions{SampleEvery: 0})))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tsvc.Extract(context.Background(), req); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(pages))*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
	b.Run("Parallel", func(b *testing.B) {
		// One page per request, many requests in flight: the request
		// fan-in shape of the HTTP daemon.
		b.ReportAllocs()
		var i atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				idx := int(i.Add(1)) % len(pages)
				one := ExtractRequest{
					Site:    "bench",
					Pages:   pages[idx : idx+1],
					Options: RequestOptions{Threshold: &th, Workers: 1},
				}
				if _, err := svc.Extract(context.Background(), one); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Each iteration serves exactly one page, so the page rate is the
		// iteration rate; reported so the parallel path compares against
		// Sequential in one unit.
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
}
