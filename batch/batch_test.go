package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ceres"
	"ceres/internal/websim"
	"ceres/pagestore"
)

// crawlFixture is a scaled-down websim crawl ingested into a page store.
type crawlFixture struct {
	store    *pagestore.Store
	kb       *ceres.KB
	pipeline *ceres.Pipeline
	sites    []string
	pages    map[string][]ceres.PageSource
}

// fixtureSites mixes trainable long-tail sites with boxofficemojo.com,
// whose chart-only pages must produce a skip, not triples (§5.5.1).
var fixtureSites = []string{"blaxploitation.com", "kinobox.cz", "laborfilms.com", "boxofficemojo.com"}

func newCrawlFixture(t testing.TB, dir string, sites []string) *crawlFixture {
	t.Helper()
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Scale: 0.02, MaxSitePages: 60, Sites: sites})
	store, err := pagestore.Open(filepath.Join(dir, "pages"))
	if err != nil {
		t.Fatal(err)
	}
	f := &crawlFixture{
		store: store,
		kb:    crawl.SeedKB,
		pages: map[string][]ceres.PageSource{},
	}
	for i, site := range crawl.Sites {
		var pages []ceres.PageSource
		for _, p := range site.Pages {
			pages = append(pages, ceres.PageSource{ID: p.ID, HTML: p.HTML})
		}
		name := crawl.Specs[i].Name
		w, werr := store.Writer(name)
		if werr != nil {
			t.Fatal(werr)
		}
		w.SegmentPages = 10 // force multi-segment partitions
		for _, p := range pages {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.sites = append(f.sites, name)
		f.pages[name] = pages
	}
	f.pipeline = ceres.NewPipeline(f.kb, ceres.WithThreshold(0.5))
	return f
}

func TestPlanJob(t *testing.T) {
	p := NewMemProvider()
	p.Add("a", make([]ceres.PageSource, 10))
	p.Add("b", make([]ceres.PageSource, 25))
	p.Add("c", nil)
	for i := range 10 {
		p.sites["a"][i] = ceres.PageSource{ID: "x", HTML: ""}
	}
	plan, err := PlanJob(Job{ShardPages: 10}, p)
	if err != nil {
		t.Fatal(err)
	}
	wantSites := []SitePlan{{Site: "a", Pages: 10, Shards: 1}, {Site: "b", Pages: 25, Shards: 3}, {Site: "c"}}
	if !reflect.DeepEqual(plan.Sites, wantSites) {
		t.Fatalf("Sites = %+v", plan.Sites)
	}
	wantShards := []Shard{
		{Site: "a", Index: 0, Start: 0, Pages: 10},
		{Site: "b", Index: 0, Start: 0, Pages: 10},
		{Site: "b", Index: 1, Start: 10, Pages: 10},
		{Site: "b", Index: 2, Start: 20, Pages: 5},
	}
	if !reflect.DeepEqual(plan.Shards, wantShards) {
		t.Fatalf("Shards = %+v", plan.Shards)
	}
	if _, err := PlanJob(Job{Sites: []string{"a", "a"}}, p); err == nil {
		t.Fatal("duplicate site accepted")
	}
	if _, err := PlanJob(Job{Sites: []string{"nosuch"}}, p); err == nil {
		t.Fatal("unknown site accepted")
	}
}

// TestRunnerMatchesDirectServe proves the sharded batch path extracts
// exactly what a direct train-then-extract over each full site does:
// sharding, parallelism and the Service layer add no drift.
func TestRunnerMatchesDirectServe(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), fixtureSites)
	sink := NewCollectSink()
	r, err := NewRunner(Config{Provider: f.store, Sink: sink, Pipeline: f.pipeline})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), Job{ShardPages: 7, Workers: 4, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild per-site triple sets by replaying the committed shards in
	// plan order (skipped sites — at least the chart-only one — have
	// none).
	harvested := map[string]bool{}
	for _, sr := range rep.Sites {
		if !sr.Skipped && sr.Err == "" {
			harvested[sr.Site] = true
		}
	}
	if len(harvested) < 2 {
		t.Fatalf("fixture too thin: only %v harvested", harvested)
	}
	plan, err := PlanJob(Job{ShardPages: 7}, f.store)
	if err != nil {
		t.Fatal(err)
	}
	var done []Shard
	for _, sh := range plan.Shards {
		if harvested[sh.Site] {
			done = append(done, sh)
		}
	}
	got := map[string][]ceres.Triple{}
	if err := sink.Replay(context.Background(), done, func(site string, tr ceres.Triple) error {
		got[site] = append(got[site], tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, site := range f.sites {
		if !harvested[site] {
			continue
		}
		model, err := f.pipeline.Train(context.Background(), f.pages[site])
		if err != nil {
			t.Fatalf("direct train %s: %v", site, err)
		}
		res, err := model.Extract(context.Background(), f.pages[site])
		if err != nil {
			t.Fatal(err)
		}
		gotSite := append([]ceres.Triple(nil), got[site]...)
		ceres.SortTriples(gotSite)
		if !reflect.DeepEqual(gotSite, res.Triples) {
			t.Errorf("site %s: batch %d triples, direct %d", site, len(gotSite), len(res.Triples))
		}
	}

	// The chart-only site is skipped with a recorded reason, not failed.
	var bomojo *SiteReport
	for i := range rep.Sites {
		if rep.Sites[i].Site == "boxofficemojo.com" {
			bomojo = &rep.Sites[i]
		}
	}
	if bomojo == nil || !bomojo.Skipped || bomojo.Err == "" {
		t.Fatalf("boxofficemojo report = %+v, want skipped", bomojo)
	}
	if len(rep.Facts) == 0 {
		t.Fatal("fusion produced no facts")
	}
}

// TestRunnerReleasesSeedKB: a cold run over a NewPipelineTSV pipeline
// leaves it holding no parsed seed KB — the heap it retains is about the
// KB's text, as before any training — and a Train after the run parses the
// text again, after which the same measure sees the parsed KB.
func TestRunnerReleasesSeedKB(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com", "laborfilms.com"})
	var buf bytes.Buffer
	if err := f.kb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	f.kb, f.pipeline = nil, nil
	live := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties the sync.Pools' victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := live() // text and the fixture included, and kept alive below
	p, err := ceres.NewPipelineTSV(text, ceres.WithThreshold(0.5))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		r, err := NewRunner(Config{Provider: f.store, Sink: NewCollectSink(), Pipeline: p})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), Job{ShardPages: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Training.Sites == 0 {
			t.Fatal("the cold run trained no site")
		}
	}()
	released := float64(live()-base) / float64(len(text))

	if _, err := p.Train(context.Background(), f.pages["blaxploitation.com"]); err != nil {
		t.Fatal(err)
	}
	parsed := float64(live()-base) / float64(len(text))
	runtime.KeepAlive(text)
	runtime.KeepAlive(f)
	runtime.KeepAlive(p)
	t.Logf("%d bytes of KB text: after the run the pipeline retains %.2fx, after a Train %.2fx", len(text), released, parsed)
	if released > 1.5 {
		t.Errorf("after a cold run the pipeline retains %.2fx its KB text, bound 1.5x", released)
	}
	if parsed <= 1.5 {
		t.Fatalf("a parsed KB retains only %.2fx its text: the measure cannot tell the two apart", parsed)
	}
}

// TestRunnerBoundedReads proves extraction never asks the provider for
// more than one shard of pages at a time (training may read up to
// TrainPages), so site size never enters memory.
func TestRunnerBoundedReads(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"kinobox.cz"})
	bp := &boundedProvider{PageProvider: f.store, maxRange: map[string]int{}}
	sink := NewCountingSink()
	r, err := NewRunner(Config{Provider: bp, Sink: sink, Pipeline: f.pipeline})
	if err != nil {
		t.Fatal(err)
	}
	const shardPages, trainPages = 6, 20
	if _, err := r.Run(context.Background(), Job{ShardPages: shardPages, Workers: 3, TrainPages: trainPages}); err != nil {
		t.Fatal(err)
	}
	n, _ := f.store.PageCount("kinobox.cz")
	if n <= trainPages {
		t.Fatalf("fixture too small for the bound to mean anything: %d pages", n)
	}
	if max := bp.max(); max > trainPages {
		t.Fatalf("runner read %d pages in one range, want <= %d", max, trainPages)
	}
	if sink.Counts().Triples == 0 {
		t.Fatal("no triples extracted")
	}
}

// TestWarmPassInflatesOnce: a warm job at the default shard size over a
// store ingested at the default segment size inflates exactly the record
// bytes it delivers — each shard is one whole segment — while the same job
// over a store written with 256-page segments, which still reads, inflates
// each segment once for every shard inside it.
func TestWarmPassInflatesOnce(t *testing.T) {
	const site = "kinobox.cz"
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Scale: 0.05, MaxSitePages: 150, Sites: []string{site}})
	var pages []ceres.PageSource
	for _, p := range crawl.Sites[0].Pages {
		pages = append(pages, ceres.PageSource{ID: p.ID, HTML: p.HTML})
	}
	if len(pages) <= 2*pagestore.DefaultSegmentPages {
		t.Fatalf("fixture too small: %d pages", len(pages))
	}
	// Publish the site's model once, from memory, so both passes are warm.
	reg := ceres.NewRegistry()
	mem := NewMemProvider()
	mem.Add(site, pages)
	cold, err := NewRunner(Config{Provider: mem, Sink: NewCountingSink(), Registry: reg, Pipeline: ceres.NewPipeline(crawl.SeedKB)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Run(context.Background(), Job{TrainPages: 64}); err != nil {
		t.Fatal(err)
	}
	for _, segPages := range []int{0, 256} {
		store, err := pagestore.Open(filepath.Join(t.TempDir(), "pages"))
		if err != nil {
			t.Fatal(err)
		}
		w, err := store.Writer(site)
		if err != nil {
			t.Fatal(err)
		}
		w.SegmentPages = segPages
		for _, p := range pages {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(Config{Provider: store, Sink: NewCountingSink(), Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background(), Job{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		st := store.ReadStats()
		if rep.Pages != len(pages) || st.Delivered == 0 {
			t.Fatalf("segments of %d: %d of %d pages extracted, %+v", segPages, rep.Pages, len(pages), st)
		}
		if whole := segPages == 0; whole != (st.Inflated == st.Delivered) || st.Inflated < st.Delivered {
			t.Errorf("segments of %d pages: inflated %d bytes to deliver %d", segPages, st.Inflated, st.Delivered)
		}
	}
}

type boundedProvider struct {
	PageProvider
	mu       sync.Mutex
	maxRange map[string]int
}

func (b *boundedProvider) PagesBytes(ctx context.Context, site string, start, n int, fn func(id, html []byte) error) error {
	total, err := b.PageCount(site)
	if err == nil {
		want := n
		if n < 0 || start+n > total {
			want = total - start
		}
		b.mu.Lock()
		if want > b.maxRange[site] {
			b.maxRange[site] = want
		}
		b.mu.Unlock()
	}
	return b.PageProvider.PagesBytes(ctx, site, start, n, fn)
}

func (b *boundedProvider) max() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := 0
	for _, v := range b.maxRange {
		if v > m {
			m = v
		}
	}
	return m
}

// TestRunnerUsesRegisteredModel proves a site already in the registry is
// served without retraining, that no pipeline is needed then, and that
// the provider has no say in the output: the same pages from memory and
// from a page store give the same triples.
func TestRunnerUsesRegisteredModel(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com"})
	site := "blaxploitation.com"
	model, err := f.pipeline.Train(context.Background(), f.pages[site])
	if err != nil {
		t.Fatal(err)
	}
	reg := ceres.NewRegistry()
	reg.Publish(site, 9, model)
	sink := NewCollectSink()
	r, err := NewRunner(Config{Provider: f.store, Sink: sink, Registry: reg}) // no Pipeline
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), Job{ShardPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	sr := rep.Sites[0]
	if sr.Trained || sr.Version != 9 || sr.Skipped {
		t.Fatalf("report = %+v, want untrained version 9", sr)
	}
	if len(sink.Triples()) == 0 {
		t.Fatal("no triples served")
	}

	mem := NewMemProvider()
	mem.Add(site, f.pages[site])
	memSink := NewCollectSink()
	mr, err := NewRunner(Config{Provider: mem, Sink: memSink, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	memRep, err := mr.Run(context.Background(), Job{ShardPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if memRep.Pages != rep.Pages || !reflect.DeepEqual(memSink.Triples(), sink.Triples()) {
		t.Fatalf("MemProvider: %d pages, %d triples; pagestore: %d pages, %d triples",
			memRep.Pages, len(memSink.Triples()), rep.Pages, len(sink.Triples()))
	}
}

// TestMemProviderConcurrentCallers runs two PagesBytes scans of one site
// side by side: what one callback is handed must hold still while the
// other call copies its next page (the race detector sees a shared buffer;
// the comparison after the wait sees it without).
func TestMemProviderConcurrentCallers(t *testing.T) {
	p := NewMemProvider()
	var pages []ceres.PageSource
	for i := 0; i < 200; i++ {
		pages = append(pages, ceres.PageSource{ID: fmt.Sprintf("p%03d", i), HTML: strings.Repeat(fmt.Sprint(i%10), 64)})
	}
	p.Add("a", pages)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := 0
			errs[c] = p.PagesBytes(context.Background(), "a", 0, -1, func(id, html []byte) error {
				runtime.Gosched()
				if string(id) != pages[i].ID || string(html) != pages[i].HTML {
					return fmt.Errorf("caller %d, page %d: got %q", c, i, id)
				}
				i++
				return nil
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunnerWithoutModelOrPipeline proves a site with no model anywhere
// is skipped with ErrNotTrained, not crashed on.
func TestRunnerWithoutModelOrPipeline(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com"})
	sink := NewCountingSink()
	r, err := NewRunner(Config{Provider: f.store, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), Job{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Sites[0].Skipped || rep.Sites[0].Err != ceres.ErrNotTrained.Error() {
		t.Fatalf("report = %+v", rep.Sites[0])
	}
}

// TestRunnerFuseNeedsReplayer proves a job that fuses over a sink that
// cannot replay is refused before any of it runs: no page read, no model
// trained, no shard committed.
func TestRunnerFuseNeedsReplayer(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), []string{"blaxploitation.com"})
	bp := &boundedProvider{PageProvider: f.store, maxRange: map[string]int{}}
	sink := NewCountingSink()
	r, err := NewRunner(Config{Provider: bp, Sink: sink, Pipeline: f.pipeline})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), Job{Fuse: true}); !errors.Is(err, ErrSinkNotReplayable) {
		t.Fatalf("err = %v, want ErrSinkNotReplayable", err)
	}
	if reads, triples := bp.max(), sink.Counts().Triples; reads != 0 || triples != 0 {
		t.Fatalf("the refused job read up to %d pages at once and committed %d triples", reads, triples)
	}
	if _, ok := r.Registry().Lookup("blaxploitation.com"); ok {
		t.Fatal("the refused job trained a model")
	}
}

func TestJSONLSinkReplay(t *testing.T) {
	sink, err := NewJSONLSink(filepath.Join(t.TempDir(), "triples"))
	if err != nil {
		t.Fatal(err)
	}
	shards := []Shard{{Site: "a/b", Index: 0, Start: 0, Pages: 2}, {Site: "a/b", Index: 1, Start: 2, Pages: 2}}
	want := [][]ceres.Triple{
		{{Subject: "s1", Predicate: "p", Object: "o", Confidence: 0.75, Page: "pg1", Path: "/x"}},
		{}, // empty shards still commit a (zero-triple) file
	}
	for i, sh := range shards {
		w, err := sink.OpenShard(sh)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range want[i] {
			if err := w.Write(tr); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var got []ceres.Triple
	if err := sink.Replay(context.Background(), shards, func(site string, tr ceres.Triple) error {
		if site != "a/b" {
			t.Fatalf("site = %q", site)
		}
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[0]) {
		t.Fatalf("replay = %+v, want %+v", got, want[0])
	}
	// A missing shard errors instead of silently under-replaying.
	if err := sink.Replay(context.Background(), []Shard{{Site: "a/b", Index: 7}}, func(string, ceres.Triple) error { return nil }); err == nil {
		t.Fatal("missing shard replayed silently")
	}
	// Aborted shards leave nothing behind.
	w, err := sink.OpenShard(Shard{Site: "a/b", Index: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(ceres.Triple{Subject: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Replay(context.Background(), []Shard{{Site: "a/b", Index: 3}}, func(string, ceres.Triple) error { return nil }); err == nil {
		t.Fatal("aborted shard left output")
	}
}

// CountingSink tallies committed triples without keeping them — the
// cheapest sink, for tests that measure the runner or need a sink that is
// no Replayer. Counts reflect only shards executed by this process
// (resumed shards are not re-counted).
type CountingSink struct {
	mu          sync.Mutex
	triples     int
	bySite      map[string]int
	byPredicate map[string]int
}

// SinkCounts is a CountingSink snapshot.
type SinkCounts struct {
	Triples     int
	BySite      map[string]int
	ByPredicate map[string]int
}

// NewCountingSink builds an empty counting sink.
func NewCountingSink() *CountingSink {
	return &CountingSink{bySite: map[string]int{}, byPredicate: map[string]int{}}
}

// Counts snapshots the committed tallies.
func (s *CountingSink) Counts() SinkCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SinkCounts{Triples: s.triples, BySite: map[string]int{}, ByPredicate: map[string]int{}}
	for k, v := range s.bySite {
		out.BySite[k] = v
	}
	for k, v := range s.byPredicate {
		out.ByPredicate[k] = v
	}
	return out
}

// OpenShard implements TripleSink.
func (s *CountingSink) OpenShard(sh Shard) (ShardWriter, error) {
	return &countingShard{sink: s, site: sh.Site, byPredicate: map[string]int{}}, nil
}

type countingShard struct {
	sink        *CountingSink
	site        string
	triples     int
	byPredicate map[string]int
}

func (w *countingShard) Write(t ceres.Triple) error {
	w.triples++
	w.byPredicate[t.Predicate]++
	return nil
}

func (w *countingShard) Commit() error {
	w.sink.mu.Lock()
	defer w.sink.mu.Unlock()
	w.sink.triples += w.triples
	w.sink.bySite[w.site] += w.triples
	for p, n := range w.byPredicate {
		w.sink.byPredicate[p] += n
	}
	return nil
}

func (w *countingShard) Abort() error { return nil }

// Sync implements TripleSink; there is nothing to flush.
func (s *CountingSink) Sync() error { return nil }
