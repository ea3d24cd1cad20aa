package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ceres/internal/cluster"
	"ceres/internal/mlr"
	"ceres/internal/par"
)

// SiteModel is the serving artifact of one trained site: everything
// extraction needs — per-template-cluster classifiers, featurizers and
// exemplar signatures — and nothing training needed (no KB, no
// annotations, no parsed pages). It is safe for concurrent use once
// trained or restored.
type SiteModel struct {
	// Clusters holds one entry per template cluster found at training
	// time, largest cluster first (the order ClusterPages produced).
	Clusters []*ClusterModel
	// Extract carries the extraction options the model was trained under.
	Extract ExtractOptions
	// TrainPages is the number of pages the model was trained on.
	TrainPages int

	// exOnce/ex cache the pre-sorted exemplar signatures for the per-page
	// routing hot path; Clusters is immutable after training/restore.
	exOnce sync.Once
	ex     []cluster.SortedSignature

	// compileOnce builds the serving form of every trained cluster on the
	// site's first serve call (see compile).
	compileOnce sync.Once
	compiled    []*CompiledModel // aligned with Clusters; nil where untrained
	maxText     int              // longest lexicon key of any cluster: the text bound streams capture
	compileErr  error
}

// ClusterModel is the serving-side artifact of one template cluster.
type ClusterModel struct {
	// Exemplar is the template signature new pages are routed by.
	Exemplar cluster.PageSignature
	// Model is nil when the cluster produced too few annotations to
	// train; pages routed here yield no extractions.
	Model   *Model
	Trained bool
	// Training statistics, for reporting.
	Pages          int
	AnnotatedPages int
	Annotations    int
}

// TrainedClusters counts clusters with a usable extractor.
func (sm *SiteModel) TrainedClusters() int {
	n := 0
	for _, c := range sm.Clusters {
		if c.Trained {
			n++
		}
	}
	return n
}

// AnnotatedPages sums training-time annotated pages across clusters.
func (sm *SiteModel) AnnotatedPages() int {
	n := 0
	for _, c := range sm.Clusters {
		n += c.AnnotatedPages
	}
	return n
}

// Annotations sums training-time positive labels across clusters.
func (sm *SiteModel) Annotations() int {
	n := 0
	for _, c := range sm.Clusters {
		n += c.Annotations
	}
	return n
}

func (sm *SiteModel) exemplars() []cluster.SortedSignature {
	sm.exOnce.Do(func() {
		sm.ex = make([]cluster.SortedSignature, len(sm.Clusters))
		for i, c := range sm.Clusters {
			sm.ex[i] = c.Exemplar.Sorted()
		}
	})
	return sm.ex
}

// compile builds the serving form of every trained cluster, once. It
// runs on the site's first serve call rather than at training or load
// time: a registry boots thousands of models and serves few of them. A
// cluster that cannot compile makes the whole model unserveable — every
// serve call returns the same error.
func (sm *SiteModel) compile() error {
	sm.compileOnce.Do(func() {
		sm.compiled = make([]*CompiledModel, len(sm.Clusters))
		for i, c := range sm.Clusters {
			if !c.Trained {
				continue
			}
			cm, err := c.Model.Compile()
			if err != nil {
				sm.compileErr = fmt.Errorf("core: cluster %d: %w", i, err)
				return
			}
			sm.compiled[i] = cm
			if cm.fz.maxText > sm.maxText {
				sm.maxText = cm.fz.maxText
			}
		}
	})
	return sm.compileErr
}

// ServeOptions are per-call serving overrides. They apply to exactly one
// Extract*Opts call, without mutating or copying the model, so concurrent
// calls with different options never observe each other's settings.
type ServeOptions struct {
	// Workers bounds this call's page parallelism; 0 uses the serving
	// process's default (NumCPU capped at 8).
	Workers int
}

// StageTimes is a serve call's time by stage, summed across its workers —
// so the stages may add up to more than the call's wall time.
type StageTimes struct {
	// Parse is tokenization: the stream pass's capture. Route is
	// template-cluster routing. Score is featurization, classification
	// and extraction assembly (they interleave per field and are timed as
	// one stage).
	Parse, Route, Score time.Duration
}

// ServeStats reports what one serve call did.
type ServeStats struct {
	// Pages is the number of pages served.
	Pages int
	// Extractions counts the unthresholded extractions produced.
	Extractions int
	// EmptyPages counts served pages that produced no extraction at all
	// — the drift signal for a template change the model no longer fits.
	EmptyPages int
	// RoutingMisses counts pages that routed to no cluster or to an
	// untrained one (which yields nothing); rising values mean traffic
	// has drifted off the trained templates.
	RoutingMisses int
	// ClusterPages counts the pages routed to each cluster, aligned with
	// SiteModel.Clusters. Pages no cluster claimed (route -1) are omitted.
	ClusterPages []int
	// Fields counts the text fields scored. ContextMisses counts those
	// whose structural context the worker's cache had not seen, so the
	// feature walk and the classifier ran for them — every other field
	// copied a remembered row. A template repeats its contexts, so a
	// rising miss share is the empty-page drift signal one level down.
	// ContextUncached counts the misses that were not remembered because
	// the model's cache had reached its size bound, and CacheEvictions the
	// caches dropped because a worker met more models than it keeps, or,
	// on a scan, because they were another model's.
	Fields          int
	ContextMisses   int
	ContextUncached int
	CacheEvictions  int
	// Stages is the call's serve time by stage.
	Stages StageTimes
}

// RoutedClusters counts distinct clusters that received at least one page.
func (s *ServeStats) RoutedClusters() int {
	n := 0
	for _, c := range s.ClusterPages {
		if c > 0 {
			n++
		}
	}
	return n
}

func (s *ServeStats) addRoute(ci int) {
	if ci >= 0 && ci < len(s.ClusterPages) {
		s.ClusterPages[ci]++
	}
}

// observePage folds one served page's routing outcome and extraction
// count into the drift counters.
func (s *ServeStats) observePage(miss bool, extractions int) {
	if miss {
		s.RoutingMisses++
	}
	if extractions == 0 {
		s.EmptyPages++
	}
}

// addContexts folds in what a scratch's context caches did during the
// call, and the time its pages spent in each stage.
func (s *ServeStats) addContexts(sc *ServeScratch) {
	s.Fields += sc.counts.fields
	s.ContextMisses += sc.counts.misses
	s.ContextUncached += sc.counts.uncached
	s.CacheEvictions += sc.counts.evictions
	s.Stages.Parse += sc.stages.Parse
	s.Stages.Route += sc.stages.Route
	s.Stages.Score += sc.stages.Score
}

// routeMiss reports whether a routing outcome is a miss: no cluster
// claimed the page, or the claimed cluster has no trained extractor.
func (sm *SiteModel) routeMiss(ci int) bool {
	return ci < 0 || ci >= len(sm.Clusters) || !sm.Clusters[ci].Trained
}

func workersFor(opts ServeOptions) int {
	if opts.Workers > 0 {
		return opts.Workers
	}
	return defaultWorkers()
}

// ExtractSources parses and extracts pages never seen at training time,
// routing each to its nearest template cluster. Extractions are pooled in
// input page order, unthresholded; callers threshold.
func (sm *SiteModel) ExtractSources(ctx context.Context, sources []PageSource) ([]Extraction, error) {
	exts, _, err := sm.ExtractSourcesOpts(ctx, sources, ServeOptions{})
	return exts, err
}

// ExtractSourcesOpts is ExtractSources with per-call overrides and serve
// statistics: the string adapter over the parallel serve loop, the slice
// being a feed that never blocks. Each page is copied once into its
// worker's reusable buffer (extractOne) to reach the byte-level streaming
// pass; callers that already hold bytes use ExtractBytesOpts and skip the
// copy.
func (sm *SiteModel) ExtractSourcesOpts(ctx context.Context, sources []PageSource, opts ServeOptions) ([]Extraction, *ServeStats, error) {
	return extractParallel(ctx, sm, par.FeedOf(sources),
		func(*par.Feed[PageSource]) (ServeOptions, error) { return opts, nil },
		(*SiteModel).extractOne)
}

// PageBytes is one page delivered as raw bytes, the byte-native
// counterpart of PageSource. HTML is only read during the serve call and
// never retained — extractions carry their own strings — so it may alias
// a buffer the caller reuses afterwards.
type PageBytes struct {
	ID   string
	HTML []byte
}

// A PageFeed delivers a serve call's pages as they become ready: it pushes
// them in order, on the calling goroutine, and returns the call's options
// — which it may only know once its last page is pushed — or the error
// that cut it short. A pushed page's HTML must stay unchanged until the
// call returns.
type PageFeed func(push func(PageBytes)) (ServeOptions, error)

// ExtractBytesOpts is the parallel bytes entry: pages are extracted while
// feed is still pushing them, each streamed straight from the caller's
// bytes — no string, no per-worker copy. Statistics, output order, the
// Workers clamp and the error contract are ExtractSourcesOpts', with
// feed's error before any of them and then ErrInvalidPage for the first
// page with an empty ID.
func (sm *SiteModel) ExtractBytesOpts(ctx context.Context, feed PageFeed) ([]Extraction, *ServeStats, error) {
	bf := bytesFeeds.Get().(*bytesFeed)
	defer func() {
		bf.Clear()
		bytesFeeds.Put(bf)
	}()
	return extractParallel(ctx, sm, &bf.Feed, func(*par.Feed[PageBytes]) (ServeOptions, error) {
		bf.empty = -1
		opts, err := feed(bf.push)
		if err == nil && bf.empty >= 0 {
			err = fmt.Errorf("%w: page %d has an empty ID", ErrInvalidPage, bf.empty)
		}
		return opts, err
	}, (*SiteModel).extractPage)
}

// bytesFeed is ExtractBytesOpts' feed, pooled with its page slice. push
// is pushPage bound once for the feed's lifetime, so handing it to a
// PageFeed allocates nothing.
type bytesFeed struct {
	par.Feed[PageBytes]
	push  func(PageBytes)
	empty int // the first page with an empty ID; -1: none yet
}

var bytesFeeds = sync.Pool{New: func() any {
	bf := new(bytesFeed)
	bf.push = bf.pushPage
	return bf
}}

func (bf *bytesFeed) pushPage(p PageBytes) {
	if p.ID == "" && bf.empty < 0 {
		bf.empty = bf.Len()
	}
	bf.Push(p)
}

// extractPage is extractBytes for a PageBytes.
func (sm *SiteModel) extractPage(p PageBytes, sc *ServeScratch) (int, []Extraction) {
	return sm.extractBytes(p.ID, p.HTML, sc)
}

// pageResult is what serving page i came to: its route and extractions.
// Each worker keeps its pages' results in its scratch, for the page count
// is only known once the feed ends.
type pageResult struct {
	i, route int
	exts     []Extraction
}

// extractParallel is the one parallel serve loop: the pages f holds and
// feed pushes fan out over the call's workers as they arrive (par.Stream),
// each worker owning one pooled scratch, and page(sm, p, scratch) returns
// a page's route and extractions. Extractions are pooled in input page
// order. The feed always runs to its end, and its error comes before any
// the serve call would report.
func extractParallel[T any](ctx context.Context, sm *SiteModel, f *par.Feed[T],
	feed func(*par.Feed[T]) (ServeOptions, error), page func(*SiteModel, T, *ServeScratch) (int, []Extraction)) ([]Extraction, *ServeStats, error) {
	if err := sm.serveable(); err != nil {
		if _, ferr := feed(f); ferr != nil {
			return nil, nil, ferr
		}
		return nil, nil, err
	}
	// The first worker — beside the feed, or the caller's goroutine —
	// serves with first; the others, started once the feed has ended and
	// the worker count is known, with rest[w-1].
	first := getServeScratch()
	var rest []*ServeScratch
	defer func() {
		putServeScratch(first)
		for _, sc := range rest {
			putServeScratch(sc)
		}
	}()
	var ferr error
	n, err := par.Stream(ctx, f, func(f *par.Feed[T]) int {
		var opts ServeOptions
		opts, ferr = feed(f)
		// Clamp before sizing the scratch pool: opts.Workers may come from
		// an untrusted request, and more workers than pages is useless.
		workers := min(workersFor(opts), f.Len())
		rest = make([]*ServeScratch, max(workers-1, 0))
		for w := range rest {
			rest[w] = getServeScratch()
		}
		return workers
	}, func(w, i int, p T) {
		sc := first
		if w > 0 {
			sc = rest[w-1]
		}
		route, exts := page(sm, p, sc)
		sc.results = append(sc.results, pageResult{i: i, route: route, exts: exts})
	})
	switch {
	case ferr != nil:
		return nil, nil, ferr
	case n == 0:
		return nil, nil, ErrNoPages
	case err != nil:
		return nil, nil, err
	}
	stats := &ServeStats{Pages: n, ClusterPages: make([]int, len(sm.Clusters))}
	byPage := make([]pageResult, n)
	total := 0
	collect := func(sc *ServeScratch) {
		stats.addContexts(sc)
		for _, r := range sc.results {
			byPage[r.i] = r
			total += len(r.exts)
		}
	}
	collect(first)
	for _, sc := range rest {
		collect(sc)
	}
	var out []Extraction
	if total > 0 {
		out = make([]Extraction, 0, total)
	}
	for _, r := range byPage {
		stats.addRoute(r.route)
		stats.observePage(sm.routeMiss(r.route), len(r.exts))
		stats.Extractions += len(r.exts)
		out = append(out, r.exts...)
	}
	return out, stats, nil
}

// serveScratchPool recycles per-worker serve scratch across calls, so a
// steady-state serving process stops re-growing vector builders,
// probability matrices and stream arenas on every request. Scratch
// never escapes a call: extraction output is freshly allocated. What it
// carries from call to call on purpose is its context caches.
var serveScratchPool = sync.Pool{New: func() any { return NewServeScratch() }}

// getServeScratch checks a scratch out of the pool with its counters,
// stage times and results empty, so what a call reads from them is the
// call's own.
func getServeScratch() *ServeScratch {
	sc := serveScratchPool.Get().(*ServeScratch)
	sc.counts = contextCounts{}
	sc.stages = StageTimes{}
	return sc
}

// putServeScratch returns a scratch to the pool, dropping the
// extractions its results still point at.
func putServeScratch(sc *ServeScratch) {
	clear(sc.results)
	sc.results = sc.results[:0]
	serveScratchPool.Put(sc)
}

// serveable validates a serve call's model: it must exist, have at least
// one trained cluster and compile. Whether there are pages to serve is
// known only once they have been read.
func (sm *SiteModel) serveable() error {
	if sm == nil || sm.TrainedClusters() == 0 {
		return ErrNotTrained
	}
	return sm.compile()
}

// extractOne is extractBytes for a page held as a string: one copy into
// the worker's reusable buffer buys the stream pass. Byte-native callers
// enter through ExtractBytesOpts (parallel) or ExtractScanOpts
// (sequential) and skip even that.
func (sm *SiteModel) extractOne(src PageSource, sc *ServeScratch) (int, []Extraction) {
	sc.htmlBuf = append(sc.htmlBuf[:0], src.HTML...)
	return sm.extractBytes(src.ID, sc.htmlBuf, sc)
}

// ---------------------------------------------------------------- state

// SiteModelState is the serializable form of a SiteModel: plain data,
// which internal/binmodel encodes.
type SiteModelState struct {
	Clusters   []ClusterModelState
	Extract    ExtractOptions
	TrainPages int
}

// ClusterModelState is the serializable form of one ClusterModel.
type ClusterModelState struct {
	// Exemplar lists the signature keys, sorted.
	Exemplar []string
	Trained  bool
	// Model is nil for untrained clusters.
	Model          *ModelState
	Pages          int
	AnnotatedPages int
	Annotations    int
}

// ModelState is the serializable form of a trained cluster Model.
type ModelState struct {
	Classes    []string
	Featurizer FeaturizerState
	// Exactly one of LR / NB is set, matching the classifier choice.
	LR *mlr.Model
	NB *mlr.NaiveBayesState
}

// State snapshots the site model for serialization.
func (sm *SiteModel) State() *SiteModelState {
	st := &SiteModelState{
		Extract:    sm.Extract,
		TrainPages: sm.TrainPages,
	}
	for _, c := range sm.Clusters {
		cs := ClusterModelState{
			Exemplar:       c.Exemplar.Keys(),
			Trained:        c.Trained,
			Pages:          c.Pages,
			AnnotatedPages: c.AnnotatedPages,
			Annotations:    c.Annotations,
		}
		if c.Model != nil {
			ms := &ModelState{
				Classes:    c.Model.Classes.Names(),
				Featurizer: c.Model.Featurizer.State(),
				LR:         c.Model.LR,
			}
			if c.Model.NB != nil {
				nb := c.Model.NB.State()
				ms.NB = &nb
			}
			cs.Model = ms
		}
		st.Clusters = append(st.Clusters, cs)
	}
	return st
}

// RestoreSiteModel rebuilds a serving-ready SiteModel from its state,
// validating classifier shapes so a corrupt state fails at load time.
func RestoreSiteModel(st *SiteModelState) (*SiteModel, error) {
	// Serialized states carry resolved extraction options (TrainSite
	// resolves before storing), so restore takes them literally; see the
	// matching convention in RestoreFeaturizer.
	sm := &SiteModel{
		Extract:    st.Extract.Explicit(),
		TrainPages: st.TrainPages,
	}
	for i, cs := range st.Clusters {
		cm := &ClusterModel{
			Exemplar:       cluster.SignatureFromKeys(cs.Exemplar),
			Trained:        cs.Trained,
			Pages:          cs.Pages,
			AnnotatedPages: cs.AnnotatedPages,
			Annotations:    cs.Annotations,
		}
		if cs.Trained && cs.Model == nil {
			return nil, fmt.Errorf("core: cluster %d marked trained but has no model", i)
		}
		if cs.Model != nil {
			m, err := restoreModel(cs.Model)
			if err != nil {
				return nil, fmt.Errorf("core: cluster %d: %w", i, err)
			}
			cm.Model = m
		}
		sm.Clusters = append(sm.Clusters, cm)
	}
	return sm, nil
}

func restoreModel(st *ModelState) (*Model, error) {
	classes, err := ClassesFromNames(st.Classes)
	if err != nil {
		return nil, err
	}
	fz, err := RestoreFeaturizer(st.Featurizer)
	if err != nil {
		return nil, err
	}
	// Serving featurizes concurrently; an unfrozen dictionary would grow
	// its map from multiple goroutines. Trained featurizers are always
	// frozen, so freeze unconditionally rather than trust the state.
	fz.Freeze()
	m := &Model{Classes: classes, Featurizer: fz}
	dictLen := fz.Dict().Len()
	checkFeatures := func(numFeatures int) error {
		if numFeatures > dictLen {
			return fmt.Errorf("core: model scores %d features but dictionary has %d", numFeatures, dictLen)
		}
		return nil
	}
	switch {
	case st.LR != nil && st.NB == nil:
		if err := st.LR.Validate(); err != nil {
			return nil, err
		}
		if st.LR.NumClasses != classes.Len() {
			return nil, fmt.Errorf("core: model has %d classes, class space has %d", st.LR.NumClasses, classes.Len())
		}
		if err := checkFeatures(st.LR.NumFeatures); err != nil {
			return nil, err
		}
		m.LR = st.LR
	case st.NB != nil && st.LR == nil:
		nb, err := mlr.RestoreNaiveBayes(*st.NB)
		if err != nil {
			return nil, err
		}
		if nb.NumClasses != classes.Len() {
			return nil, fmt.Errorf("core: model has %d classes, class space has %d", nb.NumClasses, classes.Len())
		}
		if err := checkFeatures(nb.NumFeatures); err != nil {
			return nil, err
		}
		m.NB = nb
	default:
		return nil, fmt.Errorf("core: model state needs exactly one classifier")
	}
	return m, nil
}
