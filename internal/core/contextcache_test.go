package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ceres/internal/cluster"
	"ceres/internal/dom"
	"ceres/internal/mlr"
	"ceres/internal/websim"
)

// filmSite trains a model on the leading train pages of a film site
// generated at train+serve pages and returns it with the remaining serve
// pages. The site's templates cluster differently at different sizes:
// filmSite(tb, 30, 1)'s model has two clusters, filmSite(tb, 30, 12)'s
// one. A serve page that routes to no trained cluster would be served
// without a field scored, so filmSite fails the test on one.
func filmSite(tb testing.TB, train, serve int) (*SiteModel, []PageSource) {
	tb.Helper()
	w := websim.NewWorld(websim.WorldConfig{Seed: 7})
	films, _ := websim.GenerateIMDB(w, websim.IMDBConfig{FilmPages: train + serve, PersonPages: 1, Seed: 8})
	var src []PageSource
	for _, p := range films.Pages {
		src = append(src, PageSource{ID: p.ID, HTML: p.HTML})
	}
	if len(src) < train+serve {
		tb.Fatalf("generated %d pages, want %d", len(src), train+serve)
	}
	sm, err := TrainSite(context.Background(), src[:train], websim.BuildKB(w, websim.PaperCoverage(), 9).BuildIndex(),
		Config{Train: TrainOptions{Seed: 1}})
	if err != nil {
		tb.Fatal(err)
	}
	if err := sm.compile(); err != nil {
		tb.Fatal(err)
	}
	sc := NewServeScratch()
	for _, p := range src[train : train+serve] {
		if route, _ := sm.extractBytes(p.ID, []byte(p.HTML), sc); sm.routeMiss(route) {
			tb.Fatalf("serve page %s routes to cluster %d, which has no trained extractor", p.ID, route)
		}
	}
	return sm, src[train : train+serve]
}

// reset empties a cache in place, keeping what it has allocated.
func (c *contextCache) reset() {
	for _, t := range []*tupleTable{&c.kinds, &c.contexts} {
		t.recs, t.n = t.recs[:0], 0
		clear(t.slots)
	}
	c.probs, c.bytes = c.probs[:0], 0
}

// liveBytes is what a cache's slices hold, to check the charge against.
func (c *contextCache) liveBytes() int {
	return 4*(len(c.kinds.recs)+len(c.contexts.recs)) + 8*(len(c.kinds.slots)+len(c.contexts.slots)+len(c.probs))
}

// extractAll serves pages one by one through sc and returns what each
// extracted and what the scratch counted meanwhile.
func extractAll(t *testing.T, sm *SiteModel, sc *ServeScratch, pages []PageSource) ([][]Extraction, contextCounts) {
	t.Helper()
	sc.counts = contextCounts{}
	out := make([][]Extraction, len(pages))
	for i, p := range pages {
		exts, err := sm.ExtractWith(sc, p.ID, []byte(p.HTML))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = exts
	}
	return out, sc.counts
}

// TestSecondIdenticalPageIsAllHits: a page served twice scores nothing
// the second time, and the serve statistics say so.
func TestSecondIdenticalPageIsAllHits(t *testing.T) {
	sm, serve := filmSite(t, 30, 1)
	sc := NewServeScratch()
	_, first := extractAll(t, sm, sc, serve)
	_, second := extractAll(t, sm, sc, serve)
	if first.fields == 0 || first.misses == 0 || first.misses > first.fields {
		t.Fatalf("first serve: %+v, want some fields and some of them misses", first)
	}
	if second.fields != first.fields || second.misses != 0 || second.uncached != 0 {
		t.Fatalf("second serve of the same page: %+v, want %d fields and no miss", second, first.fields)
	}
	// Through a public entry the scratch comes from the pool, warm or
	// not: the second copy of the page can still add no miss.
	_, stats, err := sm.ExtractScanOpts(context.Background(), ServeOptions{}, func(yield func(id string, html []byte) error) error {
		for i := 0; i < 2; i++ {
			if err := yield(serve[0].ID, []byte(serve[0].HTML)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fields != 2*first.fields || stats.ContextMisses > first.misses || stats.ContextUncached != 0 {
		t.Fatalf("ExtractScan of the page twice: %d fields, %d misses, %d uncached; want %d fields, at most %d misses",
			stats.Fields, stats.ContextMisses, stats.ContextUncached, 2*first.fields, first.misses)
	}
}

// TestScratchKeepsNineModels: a scratch that cycles through nine models
// keeps all nine caches, so after the first round nearly every field is a
// hit. (Eight was once the number of models a scratch held, and meeting a
// ninth threw all eight caches away.)
func TestScratchKeepsNineModels(t *testing.T) {
	m, _, src := trainTestModel(t, "")
	var models [9]*CompiledModel
	for i := range models {
		cm, err := compileModel(m)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = cm
	}
	sc := NewServeScratch()
	for round := 0; round < 4; round++ {
		if round == 1 {
			sc.counts = contextCounts{}
		}
		for i, cm := range models {
			// Each model sees its own two pages, a different pair per model.
			for _, p := range src[2*i : 2*i+2] {
				cm.ExtractStreamPage(streamFor(sc, cm, p.HTML), p.ID, ExtractOptions{}, sc)
			}
		}
	}
	c := sc.counts
	if c.fields == 0 || c.evictions != 0 {
		t.Fatalf("after the first round: %+v, want fields and no eviction", c)
	}
	if hit := 1 - float64(c.misses)/float64(c.fields); hit <= 0.9 {
		t.Fatalf("steady-state hit rate %.3f over %d fields, want > 0.9", hit, c.fields)
	}
}

// TestScratchEvictsLeastRecentlyUsed: when the caches of the models a
// scratch has served outgrow its bound, the least recently used go, one at
// a time, and are counted.
func TestScratchEvictsLeastRecentlyUsed(t *testing.T) {
	sc := NewServeScratch()
	var models [6]*CompiledModel
	for i := range models {
		models[i] = &CompiledModel{}
		sc.cacheFor(models[i]).bytes = scratchCacheBytes / 4
		sc.cache = nil // as if another model's page came between
	}
	holds := func() (held []int) {
		for i, cm := range models {
			for _, c := range sc.caches {
				if c.cm == cm {
					held = append(held, i)
				}
			}
		}
		return held
	}
	// Four quarters fill the bound; the sixth model found five, and the
	// oldest went.
	if got, want := holds(), []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) || sc.counts.evictions != 1 {
		t.Fatalf("scratch holds models %v after %d evictions, want %v after 1", got, sc.counts.evictions, want)
	}
	// Turning back to the oldest finds five quarters again: the oldest of
	// the others goes, not the one in use, and a newcomer then fits.
	sc.cacheFor(models[1])
	sc.cache = nil
	sc.cacheFor(&CompiledModel{})
	if got, want := holds(), []int{1, 3, 4, 5}; !reflect.DeepEqual(got, want) || sc.counts.evictions != 2 {
		t.Fatalf("scratch holds models %v after %d evictions, want %v after 2", got, sc.counts.evictions, want)
	}
}

// scanPages serves pages as one scan on sc — what ExtractScanOpts does on
// the scratch it checks out — and returns the call's statistics.
func scanPages(t *testing.T, sm *SiteModel, sc *ServeScratch, pages []PageSource) *ServeStats {
	t.Helper()
	sc.counts = contextCounts{}
	_, stats, err := sm.extractScan(context.Background(), sc, func(yield func(id string, html []byte) error) error {
		for _, p := range pages {
			if err := yield(p.ID, []byte(p.HTML)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// trained lists sm's compiled clusters.
func trained(sm *SiteModel) []*CompiledModel {
	var out []*CompiledModel
	for _, cm := range sm.compiled {
		if cm != nil {
			out = append(out, cm)
		}
	}
	return out
}

// cachedFor reports whether sc holds a cache for every one of models
// and for no other model.
func cachedFor(sc *ServeScratch, models ...*CompiledModel) bool {
	if len(sc.caches) != len(models) || (sc.cache != nil && !slices.Contains(models, sc.cache.cm)) {
		return false
	}
	for _, c := range sc.caches {
		if !slices.Contains(models, c.cm) {
			return false
		}
	}
	return true
}

// sameClusters is another site to the serve engine: a model of sm's
// clusters, compiled apart from sm.
func sameClusters(t *testing.T, sm *SiteModel) *SiteModel {
	t.Helper()
	other := &SiteModel{Clusters: sm.Clusters, Extract: sm.Extract, TrainPages: sm.TrainPages}
	if err := other.compile(); err != nil {
		t.Fatal(err)
	}
	return other
}

// twoTemplateSite trains a site of two movie templates, table and div
// infoboxes, and returns it with pages of both it was not trained on.
func twoTemplateSite(t *testing.T) (*SiteModel, []PageSource) {
	t.Helper()
	w := websim.NewWorld(websim.WorldConfig{Films: 150, People: 200, Series: 4, Episodes: 6, Seed: 21})
	var train, serve []PageSource
	for i, layout := range []string{"table", "div"} {
		site := websim.BuildMovieSite(w, w.Films[30*i:30*(i+1)], websim.MovieSiteStyle{Layout: layout, Prefix: layout, Language: "en"}, "two-templates", 7)
		for j, p := range site.Pages {
			if j < 20 {
				train = append(train, PageSource{ID: p.ID, HTML: p.HTML})
			} else {
				serve = append(serve, PageSource{ID: p.ID, HTML: p.HTML})
			}
		}
	}
	sm, err := TrainSite(context.Background(), train, websim.BuildKB(w, websim.FullCoverage(), 3).BuildIndex(), Config{Train: TrainOptions{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.compile(); err != nil {
		t.Fatal(err)
	}
	if len(sm.Clusters) != 2 || sm.TrainedClusters() != 2 {
		t.Fatalf("%d clusters, %d trained; want 2 trained", len(sm.Clusters), sm.TrainedClusters())
	}
	return sm, serve
}

// TestScanKeepsOnlyItsSite: a scan drops the caches of every other model
// from the scratch it serves on — a harvest hands a worker its shards
// site by site, so those are finished sites' — and counts each as an
// eviction. A site with two trained clusters keeps both caches across its
// own scans, and a later scan of another site drops both.
func TestScanKeepsOnlyItsSite(t *testing.T) {
	a, pages := filmSite(t, 30, 12)
	b := sameClusters(t, a)
	sc := NewServeScratch()
	if stats := scanPages(t, a, sc, pages); stats.Fields == 0 || stats.CacheEvictions != 0 || !cachedFor(sc, trained(a)...) {
		t.Fatalf("after a scan of A: %d fields, %d evictions, %d caches; want fields, no eviction, and A's cache",
			stats.Fields, stats.CacheEvictions, len(sc.caches))
	}
	if stats := scanPages(t, b, sc, pages); stats.CacheEvictions != 1 || !cachedFor(sc, trained(b)...) {
		t.Fatalf("after a scan of B: %d evictions, %d caches; want 1, and B's alone", stats.CacheEvictions, len(sc.caches))
	}

	two, both := twoTemplateSite(t)
	for pass := 0; pass < 2; pass++ {
		stats := scanPages(t, two, sc, both)
		if stats.RoutedClusters() != 2 {
			t.Fatalf("pass %d routed pages to %d clusters, want both", pass, stats.RoutedClusters())
		}
		if want := 1 - pass; stats.CacheEvictions != want || !cachedFor(sc, two.compiled...) {
			t.Fatalf("pass %d over two clusters: %d evictions, %d caches; want %d, and both clusters'",
				pass, stats.CacheEvictions, len(sc.caches), want)
		}
		if pass == 1 && stats.ContextMisses != 0 {
			t.Fatalf("second pass over the same pages: %d misses, want none", stats.ContextMisses)
		}
	}
	if stats := scanPages(t, a, sc, pages); stats.CacheEvictions != 2 || !cachedFor(sc, trained(a)...) {
		t.Fatalf("scan of A after the two-cluster site: %d evictions, %d caches; want 2, and A's alone", stats.CacheEvictions, len(sc.caches))
	}
}

// TestBytesServeKeepsEveryModel: the daemon's entries keep the
// least-recently-used policy across models — ExtractBytesOpts' workers
// serve page by page (extractPage) on their scratch, and a scratch that
// turns from A to B and back keeps both caches and finds A's warm.
// Through the pool, neither call evicts.
func TestBytesServeKeepsEveryModel(t *testing.T) {
	a, pages := filmSite(t, 30, 12)
	b := sameClusters(t, a)
	sc := NewServeScratch()
	serve := func(sm *SiteModel) contextCounts {
		sc.counts = contextCounts{}
		for _, p := range pages {
			sm.extractPage(PageBytes{ID: p.ID, HTML: []byte(p.HTML)}, sc)
		}
		return sc.counts
	}
	if c := serve(a); c.fields == 0 {
		t.Fatal("A's pages have no fields to score")
	}
	serve(b)
	if c := serve(a); c.evictions != 0 || c.misses != 0 || !cachedFor(sc, append(trained(a), trained(b)...)...) {
		t.Fatalf("A after B: %+v over %d caches; want no eviction, no miss, and both caches", c, len(sc.caches))
	}
	for _, sm := range []*SiteModel{a, b, a} {
		_, stats, err := sm.ExtractBytesOpts(context.Background(), func(push func(PageBytes)) (ServeOptions, error) {
			for _, p := range pages {
				push(PageBytes{ID: p.ID, HTML: []byte(p.HTML)})
			}
			return ServeOptions{Workers: 1}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CacheEvictions != 0 {
			t.Fatalf("ExtractBytesOpts evicted %d caches, want none", stats.CacheEvictions)
		}
	}
}

// TestUnknownAttributeValuesShareContexts: id and class values the model
// has never seen — one of each per element per page, as a CMS generates
// them — must cost nothing: the same extractions, no more misses and no
// more contexts than the same pages without them.
func TestUnknownAttributeValuesShareContexts(t *testing.T) {
	sm, serve := filmSite(t, 30, 20)
	unique := make([]PageSource, len(serve))
	for pi, p := range serve {
		n := 0
		html := p.HTML
		for _, tag := range []string{"td", "tr", "li", "p", "span"} {
			parts := strings.Split(html, "<"+tag+">")
			var b strings.Builder
			for i, part := range parts {
				if i > 0 {
					n++
					fmt.Fprintf(&b, `<%s id="el-%d-%d" class="c%dx%d">`, tag, pi, n, pi, n)
				}
				b.WriteString(part)
			}
			html = b.String()
		}
		if n == 0 {
			t.Fatalf("page %s: nothing to mark", p.ID)
		}
		unique[pi] = PageSource{ID: p.ID, HTML: html}
	}
	plainSc, uniqueSc := NewServeScratch(), NewServeScratch()
	want, plain := extractAll(t, sm, plainSc, serve)
	got, marked := extractAll(t, sm, uniqueSc, unique)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("page-unique id and class values changed what the pages extract to")
	}
	if marked != plain {
		t.Fatalf("with page-unique id and class values the scratch counted %+v, without %+v", marked, plain)
	}
	if a, b := uniqueSc.cache.contexts.n, plainSc.cache.contexts.n; a != b || uniqueSc.cache.bytes != plainSc.cache.bytes {
		t.Fatalf("with page-unique values the cache holds %d contexts in %d bytes, without %d in %d",
			a, uniqueSc.cache.bytes, b, plainSc.cache.bytes)
	}
}

// TestContextKeyCoversEveryFeature holds the context key to the features
// one family at a time. The model is synthetic: its dictionary has every
// structural and text feature the grammar allows over a small alphabet, at
// every level and offset, each with its own random weight, so any feature
// the key failed to tell apart would move a probability. Pages are random
// trees over that alphabet plus values the model does not know — full of
// contexts that differ in one position only — and every field of every
// page, scored through one scratch that remembers all the pages before,
// must get bit for bit what the paper-literal featurizer and classifier
// give it.
func TestContextKeyCoversEveryFeature(t *testing.T) {
	opts := FeatureOptions{}.withDefaults()
	tags := []string{"div", "span", "li", "b"}
	texts := []string{"Director:", "Cast"}
	var names []string
	for lvl := 0; lvl <= opts.MaxAncestors; lvl++ {
		for off := -opts.SiblingWindow; off <= opts.SiblingWindow; off++ {
			prefix := fmt.Sprintf("s|%d|%d|", lvl, off)
			for _, tag := range tags {
				names = append(names, prefix+"tag|"+tag)
			}
			names = append(names, prefix+"class|x", prefix+"class|y", prefix+"id|main", prefix+"itemprop|p")
		}
	}
	for lvl := 0; lvl <= opts.TextAncestors; lvl++ {
		for off := 0; off <= opts.SiblingWindow; off++ {
			if lvl == 0 && off == 0 {
				continue
			}
			for _, txt := range texts {
				names = append(names, fmt.Sprintf("t|%d|%d|%s", lvl, -off, txt))
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	const K = 4
	lr := &mlr.Model{NumClasses: K, NumFeatures: len(names), W: make([]float64, K*len(names)), B: make([]float64, K)}
	for i := range lr.W {
		lr.W[i] = rng.Float64()*2 - 1
	}
	m, err := restoreModel(&ModelState{
		Classes:    []string{"OTHER", NameClass, "directedBy", "hasCastMember"},
		Featurizer: FeaturizerState{Opts: opts, Names: names, Frozen: true, Frequent: texts},
		LR:         lr,
	})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compileModel(m)
	if err != nil {
		t.Fatal(err)
	}

	pick := func(from ...string) string { return from[rng.Intn(len(from))] }
	var grow func(b *strings.Builder, depth int)
	grow = func(b *strings.Builder, depth int) {
		tag := pick("div", "span", "li", "b", "q")
		b.WriteString("<" + tag)
		if c := pick("", "", "x", "y", "zz"); c != "" {
			b.WriteString(` class="` + c + `"`)
		}
		if id := pick("", "", "", "main", "u"+strconv.Itoa(rng.Intn(1000))); id != "" {
			b.WriteString(` id="` + id + `"`)
		}
		if rng.Intn(8) == 0 {
			b.WriteString(` itemprop="p"`)
		}
		b.WriteString(">")
		for n := 1 + rng.Intn(4); n > 0; n-- {
			if depth < 5 && rng.Intn(3) > 0 {
				grow(b, depth+1)
			} else {
				b.WriteString(pick("Director:", "Cast", "v"+strconv.Itoa(rng.Intn(50)), " "))
			}
		}
		b.WriteString("</" + tag + ">")
	}
	// Every page is the same run of blocks, a few of them altered in one
	// place: most contexts repeat, and the rest are near misses.
	blocks := make([]string, 8)
	for i := range blocks {
		var b strings.Builder
		grow(&b, 0)
		blocks[i] = b.String()
	}
	alter := [][2]string{
		{"Director:", "Cast"}, {"Cast", "Director:"}, {"Cast", "v7"},
		{`class="x"`, `class="y"`}, {`class="y"`, `class="zz"`}, {` id="main"`, ""},
		{` itemprop="p"`, ""}, {"<span>", `<span class="x">`}, {"<li", "<div"}, {"<b>", "<b>Cast"},
	}
	sc := NewServeScratch()
	fields := 0
	for page := 0; page < 300; page++ {
		var b strings.Builder
		b.WriteString("<html><body>")
		for _, block := range blocks {
			if rng.Intn(4) == 0 {
				a := alter[rng.Intn(len(alter))]
				block = strings.Replace(block, a[0], a[1], 1)
			}
			b.WriteString(block)
		}
		b.WriteString("</body></html>")
		html := b.String()
		p := PreparePage("p", html)
		sp := streamFor(sc, cm, html)
		if sp.Fields() != len(p.Fields) {
			t.Fatalf("page %d: stream %d fields, prepared %d", page, sp.Fields(), len(p.Fields))
		}
		proba := sc.beginPage(sp, cm)
		cm.scoreStreamFields(sp, proba, sc)
		tsp := streamPage(p)
		for fi, f := range p.Fields {
			if want := m.Proba(tsp, fi); !slices.Equal(proba[fi*K:(fi+1)*K], want) {
				t.Fatalf("page %d field %d (%q): engine %v, reference %v\n%s", page, fi, f.Text, proba[fi*K:(fi+1)*K], want, html)
			}
		}
		fields += len(p.Fields)
	}
	if c := sc.counts; c.fields != fields || c.misses*100 < c.fields || c.misses*2 > c.fields {
		t.Fatalf("%d fields compared; the scratch counted %+v — want hits and misses both", fields, c)
	}
}

// routeOf is the cluster the engine routes p to: the one whose exemplar
// is most like p's stream signature.
func routeOf(sm *SiteModel, p *Page) int {
	if len(sm.Clusters) == 1 {
		return 0
	}
	s := pageStreamer{opts: dom.StreamOptions{Attrs: []string{"class"}, Signature: true}}
	i, _ := cluster.RouteSortedBytes(s.stream(p).AppendSignature(nil), sm.exemplars())
	return i
}

// TestContextCacheStopsAtItsBound serves a site whose pages never repeat
// a context — rows of elements whose tags the model knows, in random
// order — until the model's cache is full: output stays what the
// paper-literal engine extracts, the cache stays within its bound, and
// the fields it could not remember are counted.
func TestContextCacheStopsAtItsBound(t *testing.T) {
	sm, serve := filmSite(t, 30, 24)
	tags := []string{"span", "b", "i", "em", "a", "p", "li", "td", "div", "h2", "h3", "strong"}
	rng := rand.New(rand.NewSource(5))
	noisy := make([]PageSource, len(serve))
	for pi, p := range serve {
		var b strings.Builder
		for row := 0; row < 120; row++ {
			b.WriteString("<div>")
			for k := 0; k < 12; k++ {
				tag := tags[rng.Intn(len(tags))]
				fmt.Fprintf(&b, "<%s>v%d</%s>", tag, rng.Intn(1000), tag)
			}
			b.WriteString("</div>")
		}
		noisy[pi] = PageSource{ID: p.ID, HTML: strings.Replace(p.HTML, "</body>", b.String()+"</body>", 1)}
	}
	sc := NewServeScratch()
	got, counts := extractAll(t, sm, sc, noisy)
	extracted := 0
	for i, p := range noisy {
		page := PreparePage(p.ID, p.HTML)
		want := ExtractPage(page, sm.Clusters[routeOf(sm, page)].Model, sm.Extract)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("page %s: engine %d extractions, reference %d", p.ID, len(got[i]), len(want))
		}
		extracted += len(want)
	}
	if extracted == 0 {
		t.Fatal("nothing extracted; comparison vacuous")
	}
	c := sc.cache
	if counts.uncached == 0 {
		t.Fatalf("%d fields, %d misses in %d bytes and none uncached: the site did not fill the cache", counts.fields, counts.misses, c.bytes)
	}
	if c.bytes > contextCacheBytes || c.liveBytes() > c.bytes {
		t.Fatalf("cache charged %d bytes and holding %d, bound %d", c.bytes, c.liveBytes(), contextCacheBytes)
	}
	// Full is not broken: a page the cache has seen still hits.
	_, again := extractAll(t, sm, sc, noisy[:1])
	if again.misses >= again.fields/2 {
		t.Fatalf("first page again through the full cache: %+v", again)
	}
}

// FuzzExtractWarmCold: whatever the page, a scratch that has served the
// site and one that has served nothing score every field alike (bit for
// bit) and extract the same. Seeds: the stream pass's committed fuzz
// corpus and two of the site's own pages.
func FuzzExtractWarmCold(f *testing.F) {
	seeds, err := filepath.Glob("../dom/testdata/fuzz/FuzzStreamMatchesDOM/*")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed corpus: %v", err)
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "string(") {
			f.Fatalf("%s: not a corpus file with a string first", path)
		}
		html, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(html)
	}
	sm, serve := filmSite(f, 30, 12)
	for _, p := range serve[:2] {
		f.Add(p.HTML)
	}
	warm := NewServeScratch()
	for _, p := range serve {
		if _, err := sm.ExtractWith(warm, p.ID, []byte(p.HTML)); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, html string) {
		fresh := NewServeScratch()
		want, err := sm.ExtractWith(fresh, "page", []byte(html))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.ExtractWith(warm, "page", []byte(html))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("used scratch extracts %v, fresh one %v", got, want)
		}
		n := fresh.stream.Stream([]byte(html), dom.StreamOptions{}).Fields() * sm.compiled[0].scorer.ClassCount()
		if !slices.Equal(warm.proba[:n], fresh.proba[:n]) {
			t.Fatal("used and fresh scratch scored a field differently")
		}
	})
}

// BenchmarkScoreFields times what the engine does to a streamed page
// before assembling extractions — resolving its elements through the
// vocabulary and scoring every field — in ns per field. hit scores pages
// whose contexts are all in the scratch's cache (0 allocs/op: the hit path
// is the daemon's steady state); miss empties the cache before every page,
// so each distinct context runs the feature walk and the classifier.
func BenchmarkScoreFields(b *testing.B) {
	sm, serve := filmSite(b, 40, 20)
	if len(sm.Clusters) != 1 {
		b.Fatalf("%d clusters, want 1", len(sm.Clusters))
	}
	cm := sm.compiled[0]
	pages := make([]*dom.StreamPage, len(serve))
	fields := 0
	for i, s := range serve {
		pages[i] = dom.NewStreamScratch().Stream([]byte(s.HTML), dom.StreamOptions{MaxText: sm.maxText, Attrs: structuralAttrs[:]})
		fields += pages[i].Fields()
	}
	run := func(b *testing.B, cold bool) {
		sc := NewServeScratch()
		for _, sp := range pages {
			cm.scoreStreamFields(sp, sc.beginPage(sp, cm), sc)
		}
		sc.counts = contextCounts{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, sp := range pages {
				if cold {
					sc.cache.reset()
				}
				cm.scoreStreamFields(sp, sc.beginPage(sp, cm), sc)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fields), "ns/field")
		b.ReportMetric(float64(sc.counts.misses)/float64(sc.counts.fields), "miss-share")
	}
	b.Run("hit", func(b *testing.B) { run(b, false) })
	b.Run("miss", func(b *testing.B) { run(b, true) })
}
