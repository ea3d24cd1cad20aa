package ceres

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ceres/internal/core"
	"ceres/internal/websim"
)

// crawlSites generates a few trainable sites of the websim long-tail crawl
// over one seed KB: what a pipeline training sites concurrently is given.
func crawlSites(t *testing.T, pagesPerSite int) (*KB, map[string][]PageSource) {
	t.Helper()
	names := []string{"blaxploitation.com", "laborfilms.com", "spicyonion.com", "soundtrackcollector.com", "themoviedb.org"}
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Scale: 0.02, MaxSitePages: pagesPerSite, Sites: names})
	sites := map[string][]PageSource{}
	for i, site := range crawl.Sites {
		for _, p := range site.Pages {
			sites[crawl.Specs[i].Name] = append(sites[crawl.Specs[i].Name], PageSource{ID: p.ID, HTML: p.HTML})
		}
	}
	return crawl.SeedKB, sites
}

// TestConcurrentTrainSameBytes: sites trained through one Pipeline at the
// same time — preparing one at a time behind its gate, fitting side by
// side — serialize to the bytes they have when trained one after another,
// on one core and on all of them.
func TestConcurrentTrainSameBytes(t *testing.T) {
	kb, sites := crawlSites(t, 60)
	if len(sites) < 4 {
		t.Fatalf("fixture has %d sites, want at least 4", len(sites))
	}
	train := func(p *Pipeline, site string) []byte {
		m, err := p.Train(context.Background(), sites[site])
		if err != nil {
			t.Errorf("%s: %v", site, err)
			return nil
		}
		var buf bytes.Buffer
		if _, err := m.WriteBinary(&buf); err != nil {
			t.Errorf("%s: %v", site, err)
		}
		return buf.Bytes()
	}
	want := map[string][]byte{}
	sequential := NewPipeline(kb)
	for site := range sites {
		want[site] = train(sequential, site)
	}
	if st := sequential.TrainStats(); st.Sites != len(sites) || st.PeakTraining != 1 || st.PeakHolding != 1 {
		t.Errorf("sequential training counted %+v", st)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		p := NewPipeline(kb)
		got := map[string][]byte{}
		var mu sync.Mutex
		var wg sync.WaitGroup
		for site := range sites {
			wg.Add(1)
			go func(site string) {
				defer wg.Done()
				b := train(p, site)
				mu.Lock()
				got[site] = b
				mu.Unlock()
			}(site)
		}
		wg.Wait()
		for site := range sites {
			if len(want[site]) == 0 || !bytes.Equal(got[site], want[site]) {
				t.Errorf("GOMAXPROCS %d: %s trained beside the others wrote different model bytes", procs, site)
			}
		}
		if st := p.TrainStats(); st.Sites != len(sites) || st.PeakTraining < 2 || st.PeakHolding != 1 {
			t.Errorf("GOMAXPROCS %d: concurrent training counted %+v, want %d sites, several in flight, one holding pages", procs, st, len(sites))
		}
	}
}

// TestTrainCancelledWhileQueued: a Train waiting for another site to leave
// the prepare gate returns its context's error when cancelled, without
// having prepared anything.
func TestTrainCancelledWhileQueued(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(c.KB)
	p.gate <- struct{}{} // another site is preparing
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Train(ctx, c.Pages)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Train returned %v with the gate taken", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Train cancelled in the queue returned %v", err)
	}
	if st := p.TrainStats(); st.Sites != 0 || st.PeakHolding != 0 {
		t.Errorf("a call that never passed the gate was counted: %+v", st)
	}
	<-p.gate
	if _, err := p.Train(context.Background(), c.Pages); err != nil {
		t.Fatalf("Train after the gate was released: %v", err)
	}
}

// TestFitHoldsNoPages measures what each half of Train keeps alive: live
// heap after a forced collection, over its value before Train, once
// prepare has streamed and clustered the pages (the prepared pages: per
// page one string of field texts and XPaths, one of normalized texts,
// and the Field structs; the HTML was live before) and when the first
// optimizer is about to evaluate its objective. The prepared pages must
// fit in maxPreparedBytesPerPage each, and by the first fit they must be
// garbage.
func TestFitHoldsNoPages(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Train gets the only reference to a copy of the pages, as a runner
	// that has just read them from its page store does.
	pages := make([]PageSource, len(c.Pages))
	for i, pg := range c.Pages {
		pages[i] = PageSource{ID: pg.ID, HTML: string(append([]byte(nil), pg.HTML...))}
	}
	p := NewPipeline(c.KB)
	// What the first Train leaves behind for good — the KB's match index,
	// warm parser pools — belongs to the baseline, not to either half.
	if _, err := p.Train(context.Background(), c.Pages[:20]); err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	at := map[string]int64{}
	base := live()
	defer core.SetTrainingProbe(func(phase string) {
		if _, seen := at[phase]; !seen {
			at[phase] = live() - base
		}
	})()
	m, err := p.Train(context.Background(), pages)
	if err != nil {
		t.Fatal(err)
	}
	parsed, fit := at["parsed"], at["fit"]
	perPage := parsed / int64(len(pages))
	t.Logf("%d pages: %.1f MB live once parsed (%d B a page), %.1f MB at the first fit", len(pages), float64(parsed)/(1<<20), perPage, float64(fit)/(1<<20))
	if perPage < 2<<10 {
		t.Fatalf("only %d bytes a page live once parsed: the probe is not measuring the page set", perPage)
	}
	// A prepared page held 31.9 KB while it kept its dom.Parse tree
	// (bounded by 9 MB for the 200, 1.5 times the 6.1 MB measured); 8.8 KB
	// since its fields are copied out of one stream pass. The bound keeps
	// the same 1.5 times.
	const maxPreparedBytesPerPage = 13 << 10
	if perPage > maxPreparedBytesPerPage {
		t.Errorf("%d bytes a page live once parsed, bound %d: the prepared pages grew", perPage, maxPreparedBytesPerPage)
	}
	if fit > parsed/4 {
		t.Errorf("%d bytes live at the first fit, %d once parsed: the fit still holds the pages", fit, parsed)
	}
	runtime.KeepAlive(m)
}

// TestModelPinsNoTrainingPage walks every string of a freshly trained
// model — lexicon, feature names, class names, exemplar signature keys —
// and requires that none of them points into a training page: a substring
// kept as a map key would keep the whole page reachable for as long as
// the model is registered.
func TestModelPinsNoTrainingPage(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 60)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewPipeline(c.KB).Train(context.Background(), c.Pages)
	if err != nil {
		t.Fatal(err)
	}
	inPage := func(s string) (string, bool) {
		if len(s) == 0 {
			return "", false
		}
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, pg := range c.Pages {
			lo := uintptr(unsafe.Pointer(unsafe.StringData(pg.HTML)))
			if at >= lo && at < lo+uintptr(len(pg.HTML)) {
				return pg.ID, true
			}
		}
		return "", false
	}
	strs, pinned := 0, map[string]bool{}
	check := func(kind, s string) {
		strs++
		if page, ok := inPage(s); ok {
			pinned[page] = true
			t.Errorf("%s %q points into training page %s", kind, s, page)
		}
	}
	st := m.sm.State()
	for _, cs := range st.Clusters {
		for _, key := range cs.Exemplar {
			check("exemplar key", key)
		}
		if cs.Model == nil {
			continue
		}
		for _, name := range cs.Model.Classes {
			check("class", name)
		}
		for _, s := range cs.Model.Featurizer.Frequent {
			check("lexicon string", s)
		}
		for _, name := range cs.Model.Featurizer.Dict.Names {
			check("feature name", name)
		}
	}
	if strs < 100 {
		t.Fatalf("walked only %d strings of the model", strs)
	}
	if len(pinned) > 0 {
		t.Errorf("the model keeps %d of %d training pages reachable", len(pinned), len(c.Pages))
	}
}
