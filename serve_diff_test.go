package ceres

// Differential tests for the serve engine (DESIGN.md §5): serving
// through SiteModel — one stream pass over the page bytes, compiled
// integer feature tables, the allocation-free Scorer — must be
// output-identical to the paper-literal engine (PreparePage + routing by
// map-signature Jaccard + core.ExtractPage), triple for triple, confidence bit for bit, XPath for
// XPath, across every DemoCorpus site, both classifiers, untrained-cluster
// routing and malformed markup, and under concurrent use of one model.
// Serialization must be unaffected by compilation.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ceres/internal/cluster"
	"ceres/internal/core"
	"ceres/internal/dom"
)

// referenceExtract is §4.3 as written, from exported core pieces: full
// page preparation, routing by map-signature Jaccard, string-hashed
// features, allocating scorer. Every differential below compares the
// engine with it.
func referenceExtract(sm *core.SiteModel, sources []core.PageSource) []core.Extraction {
	var out []core.Extraction
	for _, src := range sources {
		p := core.PreparePage(src.ID, src.HTML)
		ci := referenceRoute(sm, src.HTML)
		if ci < 0 || !sm.Clusters[ci].Trained {
			continue
		}
		out = append(out, core.ExtractPage(p, sm.Clusters[ci].Model, sm.Extract)...)
	}
	return out
}

// referenceRoute is the cluster whose exemplar is most like the page's
// signature by cluster.Jaccard over maps, the earliest on a tie (-1 with
// no cluster): routing as training's clustering compares pages.
func referenceRoute(sm *core.SiteModel, html string) int {
	if len(sm.Clusters) == 1 {
		return 0
	}
	sp := dom.NewStreamScratch().Stream([]byte(html), dom.StreamOptions{Attrs: []string{"class"}, Signature: true})
	sig := cluster.PageSignature{}
	for _, k := range sp.AppendSignature(nil) {
		sig[string(k)] = true
	}
	best, bestSim := -1, -1.0
	for i, c := range sm.Clusters {
		if sim := cluster.Jaccard(sig, c.Exemplar); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	return best
}

func corpusSources(t *testing.T, kind string, seed int64, pages int) ([]core.PageSource, *Corpus) {
	t.Helper()
	c, err := DemoCorpus(kind, seed, pages)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]core.PageSource, len(c.Pages))
	for i, p := range c.Pages {
		src[i] = core.PageSource{ID: p.ID, HTML: p.HTML}
	}
	return src, c
}

// diffStreamServe serves pages through the engine and requires the
// reference's output. It returns the extraction count so callers can
// assert the comparison was not vacuous.
func diffStreamServe(t *testing.T, name string, sm *core.SiteModel, serve []core.PageSource) int {
	t.Helper()
	want := referenceExtract(sm, serve)
	got, err := sm.ExtractSources(context.Background(), serve)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		max := len(got)
		if len(want) < max {
			max = len(want)
		}
		for i := 0; i < max; i++ {
			if got[i] != want[i] {
				t.Fatalf("%s: extraction %d diverges\nengine:    %+v\nreference: %+v", name, i, got[i], want[i])
			}
		}
		t.Fatalf("%s: engine %d extractions, reference %d", name, len(got), len(want))
	}
	return len(want)
}

func trainHalf(t *testing.T, kind string, seed int64, pages int) (*core.SiteModel, []core.PageSource) {
	t.Helper()
	src, c := corpusSources(t, kind, seed, pages)
	var train, serve []core.PageSource
	for i, s := range src {
		if i%2 == 0 {
			train = append(train, s)
		} else {
			serve = append(serve, s)
		}
	}
	sm, err := core.TrainSite(context.Background(), train, c.KB, core.Config{Train: core.TrainOptions{Seed: 1}})
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return sm, serve
}

// TestCompiledServeMatchesLegacyAllCorpora trains on half of every demo
// corpus and serves the other (unseen) half.
func TestCompiledServeMatchesLegacyAllCorpora(t *testing.T) {
	kinds := []string{"movies", "movies-longtail", "imdb-films", "imdb-people", "crawl-czech"}
	total := 0
	for _, kind := range kinds {
		sm, serve := trainHalf(t, kind, 7, 40)
		n := diffStreamServe(t, kind, sm, serve)
		t.Logf("%s: %d extractions identical to the reference", kind, n)
		total += n
	}
	if total == 0 {
		t.Fatal("no corpus produced extractions; differential vacuous")
	}
}

// TestCompiledServeMatchesLegacyNaiveBayes repeats the differential with
// the classifier ablation, which serves through the same Scorer contract.
func TestCompiledServeMatchesLegacyNaiveBayes(t *testing.T) {
	src, c := corpusSources(t, "movies", 7, 40)
	sm, err := core.TrainSite(context.Background(), src[:20], c.KB,
		core.Config{Train: core.TrainOptions{Seed: 1, Classifier: "nb"}})
	if err != nil {
		t.Fatal(err)
	}
	if n := diffStreamServe(t, "movies/nb", sm, src[20:]); n == 0 {
		t.Fatal("naive Bayes extracted nothing; differential vacuous")
	}
}

// TestCompiledServeUntrainedClusterRouting mixes two template families
// with a KB covering only one, so the other's cluster exists but is
// untrained: pages routed there must yield nothing, as in the reference.
func TestCompiledServeUntrainedClusterRouting(t *testing.T) {
	movieSrc, movieCorpus := corpusSources(t, "movies", 7, 30)
	imdbSrc, _ := corpusSources(t, "imdb-films", 3, 20)
	train := append(append([]core.PageSource{}, movieSrc[:15]...), imdbSrc[:10]...)
	sm, err := core.TrainSite(context.Background(), train, movieCorpus.KB, core.Config{Train: core.TrainOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sm.Clusters) < 2 {
		t.Fatalf("expected >=2 template clusters, got %d", len(sm.Clusters))
	}
	if sm.TrainedClusters() == len(sm.Clusters) {
		t.Fatalf("expected at least one untrained cluster")
	}
	serve := append(append([]core.PageSource{}, movieSrc[15:]...), imdbSrc[10:]...)
	// The serve set must actually exercise untrained-cluster routing.
	untrainedHits := 0
	for _, s := range serve {
		ci := referenceRoute(sm, s.HTML)
		if ci >= 0 && !sm.Clusters[ci].Trained {
			untrainedHits++
		}
	}
	if untrainedHits == 0 {
		t.Fatal("no serve page routed to an untrained cluster; test vacuous")
	}
	if n := diffStreamServe(t, "mixed", sm, serve); n == 0 {
		t.Fatal("trained cluster extracted nothing; differential vacuous")
	}
}

// malformedMutators rewrite a page into the malformed constructs the
// parser tolerates: unclosed tags, raw-text elements, comments inside
// tables, stray end tags, truncation.
var malformedMutators = []struct {
	name string
	fn   func(html string) string
}{
	{"unclosed divs", func(h string) string {
		return strings.Replace(h, "<body", "<div><div class=\"open\"><body", 1)
	}},
	{"comment in table", func(h string) string {
		return strings.ReplaceAll(h, "<tr>", "<!-- row --><tr>")
	}},
	{"raw text", func(h string) string {
		return strings.Replace(h, "</body>", "<script>if (a<b) { x(\"</div>\"); }</script><style>p>a{}</style></body>", 1)
	}},
	{"stray end tags", func(h string) string {
		return strings.ReplaceAll(h, "<td>", "</span></p><td>")
	}},
	{"truncated", func(h string) string {
		return h[:len(h)*3/4]
	}},
	{"unclosed raw", func(h string) string {
		return h + "<script>never closed"
	}},
}

// TestStreamServeMatchesDOMMalformed mutates served pages with every
// malformedMutators entry and requires the engine to agree with the
// reference on every mutant.
func TestStreamServeMatchesDOMMalformed(t *testing.T) {
	sm, serve := trainHalf(t, "movies", 7, 30)
	for _, m := range malformedMutators {
		mutated := make([]core.PageSource, len(serve))
		for i, s := range serve {
			mutated[i] = core.PageSource{ID: s.ID, HTML: m.fn(s.HTML)}
		}
		diffStreamServe(t, m.name, sm, mutated)
	}
}

// TestServeIndependentOfScratchHistory: what a page extracts to must not
// depend on what its worker's scratch served before — the context cache
// may only ever return what scoring would have. Every unseen page of the
// five corpora, as generated and under each malformed mutator, is
// extracted through a scratch that has never served anything and through
// one that serves them all, first in order and then in reverse (so each
// page is met both before and after every other one). The differential
// suites above cannot see this: they run one order through pooled
// scratches.
func TestServeIndependentOfScratchHistory(t *testing.T) {
	total := 0
	for _, kind := range []string{"movies", "movies-longtail", "imdb-films", "imdb-people", "crawl-czech"} {
		sm, serve := trainHalf(t, kind, 7, 40)
		pages := append([]core.PageSource{}, serve...)
		for _, m := range malformedMutators {
			for _, s := range serve {
				pages = append(pages, core.PageSource{ID: s.ID + "/" + m.name, HTML: m.fn(s.HTML)})
			}
		}
		cold := make([][]core.Extraction, len(pages))
		for i, p := range pages {
			exts, err := sm.ExtractWith(core.NewServeScratch(), p.ID, []byte(p.HTML))
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			cold[i] = exts
			total += len(exts)
		}
		warm := core.NewServeScratch()
		check := func(order string, i int) {
			exts, err := sm.ExtractWith(warm, pages[i].ID, []byte(pages[i].HTML))
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if !reflect.DeepEqual(exts, cold[i]) {
				t.Fatalf("%s page %s, %s through a used scratch: %d extractions differ from the %d of a fresh one",
					kind, pages[i].ID, order, len(exts), len(cold[i]))
			}
		}
		for i := range pages {
			check("forward", i)
		}
		for i := len(pages) - 1; i >= 0; i-- {
			check("in reverse", i)
		}
	}
	if total == 0 {
		t.Fatal("nothing extracted; comparison vacuous")
	}
}

// TestStreamServeSharedModelRace drives 8 goroutines through one freshly
// trained model simultaneously, so its first-serve compile is contended
// too; run with -race it proves the per-worker scratch discipline. Every
// worker must also produce the sequential output.
func TestStreamServeSharedModelRace(t *testing.T) {
	sm, serve := trainHalf(t, "movies", 7, 24)
	const workers = 8
	results := make([][]core.Extraction, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			results[w], errs[w] = sm.ExtractSources(context.Background(), serve)
		}()
	}
	wg.Wait()
	want, err := sm.ExtractSources(context.Background(), serve)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w], want) {
			t.Fatalf("worker %d diverged from sequential output", w)
		}
	}
}

// TestStreamExtractScanMatches feeds pages through the byte-scan entry
// point and requires the same extractions as the string-source path.
func TestStreamExtractScanMatches(t *testing.T) {
	sm, serve := trainHalf(t, "imdb-films", 7, 24)
	want, err := sm.ExtractSources(context.Background(), serve)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := sm.ExtractScanOpts(context.Background(), core.ServeOptions{}, func(yield func(id string, html []byte) error) error {
		for _, s := range serve {
			if err := yield(s.ID, []byte(s.HTML)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pages != len(serve) {
		t.Fatalf("stats.Pages = %d, want %d", stats.Pages, len(serve))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan path %d extractions, source path %d", len(got), len(want))
	}
}

// TestCompiledServeLeavesSerializationUnchanged: compiling and serving
// must not mutate the model; WriteBinary is byte-identical before and after,
// and a reloaded model re-serializes identically (the on-disk format has
// no compiled artifacts).
func TestCompiledServeLeavesSerializationUnchanged(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewPipeline(c.KB).Train(context.Background(), c.Pages[:15])
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if _, err := model.WriteBinary(&before); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Extract(context.Background(), c.Pages[15:]); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if _, err := model.WriteBinary(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("serving through the compiled path changed the serialized model")
	}
	loaded, err := ReadSiteModel(bytes.NewReader(after.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Extract(context.Background(), c.Pages[15:]); err != nil {
		t.Fatal(err)
	}
	var reloaded bytes.Buffer
	if _, err := loaded.WriteBinary(&reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), reloaded.Bytes()) {
		t.Fatal("reload + compiled serve changed the serialized bytes")
	}
}
