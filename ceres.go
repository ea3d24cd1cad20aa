package ceres

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ceres/internal/binmodel"
	"ceres/internal/core"
	"ceres/internal/kb"
	"ceres/internal/mlr"
	"ceres/internal/obs/trace"
)

// Re-exported knowledge-base types. The implementation lives in
// ceres/internal/kb; the aliases make the full method sets part of the
// public API.
type (
	// KB is an in-memory seed knowledge base with the name/alias and
	// object indexes CERES queries during annotation.
	KB = kb.KB
	// Ontology is the set of relation predicates extraction is restricted
	// to.
	Ontology = kb.Ontology
	// Predicate describes one relation of the ontology.
	Predicate = kb.Predicate
	// Entity is a node of the knowledge graph.
	Entity = kb.Entity
	// Object is a triple's object: an entity reference or a literal.
	Object = kb.Object
	// KBTriple is one (subject, predicate, object) seed fact.
	KBTriple = kb.Triple
)

// Sentinel errors of the train/serve lifecycle; test with errors.Is.
var (
	// ErrNoPages reports an empty page set passed to Train or Extract.
	ErrNoPages = core.ErrNoPages
	// ErrNotTrained reports extraction through a SiteModel that has no
	// trained cluster extractor (e.g. the zero value).
	ErrNotTrained = core.ErrNotTrained
	// ErrNoAnnotations reports that distant supervision aligned too few
	// pages with the seed KB to train any extractor.
	ErrNoAnnotations = core.ErrNoAnnotations
	// ErrInvalidPage reports a malformed page in the input set (e.g. an
	// empty ID) — a caller fault, like ErrNoPages.
	ErrInvalidPage = core.ErrInvalidPage
	// ErrNoSeedKB reports Train on a pipeline built over a nil KB.
	ErrNoSeedKB = errors.New("ceres: pipeline has no seed KB")
)

// NewKB creates an empty knowledge base over the ontology.
func NewKB(o *Ontology) *KB { return kb.New(o) }

// NewOntology builds an ontology from predicate definitions.
func NewOntology(preds ...Predicate) *Ontology { return kb.NewOntology(preds...) }

// EntityObject makes an entity-valued triple object.
func EntityObject(id string) Object { return kb.EntityObject(id) }

// LiteralObject makes a literal-valued triple object.
func LiteralObject(v string) Object { return kb.LiteralObject(v) }

// ReadKB parses a KB from its TSV serialization (see KB.Write).
var ReadKB = kb.Read

// PageSource is one raw page of a site: an identifier plus its HTML.
type PageSource struct {
	ID   string
	HTML string
}

// PageBytes is one raw page held as bytes: the byte-native PageSource,
// for callers (a daemon's request buffer, decoded store records) that
// never had the page as a string. See Service.ExtractBytes.
type PageBytes = core.PageBytes

// A PageFeed delivers the pages of one Service.ExtractBytes call, which
// calls Feed exactly once. Feed calls yield once per page, in order, on
// the calling goroutine — a page may be extracted as soon as it is
// yielded — and returns once the last page is out, or with the error that
// ended the feed early. It may set opts until it returns: ExtractBytes
// reads the request's threshold and workers only then. A yielded page's
// HTML must stay unchanged until ExtractBytes returns.
type PageFeed interface {
	Feed(yield func(PageBytes), opts *RequestOptions) error
}

// PageSlice is the PageFeed of pages already in hand: it yields them and
// leaves opts as they are.
type PageSlice []PageBytes

// Feed yields the pages.
func (ps PageSlice) Feed(yield func(PageBytes), _ *RequestOptions) error {
	for _, p := range ps {
		yield(p)
	}
	return nil
}

// Triple is one extracted fact.
type Triple struct {
	// Subject is the text of the page's topic-name node.
	Subject string
	// Predicate names the relation (from the seed KB's ontology).
	Predicate string
	// Object is the extracted value text.
	Object string
	// Confidence in (0,1]; thresholding trades precision for recall
	// (paper Figure 6).
	Confidence float64
	// Page identifies the source page; Path is the XPath of the extracted
	// node on it.
	Page string
	Path string
}

// Result is the outcome of extracting one site.
type Result struct {
	// Triples holds extractions at or above the pipeline threshold,
	// sorted by descending confidence then page.
	Triples []Triple
	// AnnotatedPages and Annotations report distant-supervision yield
	// (how many pages aligned with the seed KB, and how many labels that
	// produced). For SiteModel.Extract they describe the training run the
	// model came from, not the served pages.
	AnnotatedPages int
	Annotations    int
	// TemplateClusters is the number of template groups the site split
	// into.
	TemplateClusters int
	// Pages is the number of input pages.
	Pages int
}

// Mode selects the annotation strategy.
type Mode int

const (
	// ModeFull is the paper's CERES-Full: Algorithm 1 + Algorithm 2.
	ModeFull Mode = iota
	// ModeTopicOnly is the CERES-Topic baseline: topic identification but
	// no relation-annotation disambiguation (every object mention is
	// labelled with every applicable relation).
	ModeTopicOnly
)

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithThreshold sets the extraction-confidence cutoff (default 0.5, the
// paper's setting; 0.75 trades recall for ~90% precision in the paper's
// long-tail experiment). Models trained by the pipeline inherit it.
func WithThreshold(t float64) Option {
	return func(p *Pipeline) { p.threshold = t }
}

// WithMode selects the annotation strategy (default ModeFull).
func WithMode(m Mode) Option {
	return func(p *Pipeline) { p.cfg.Relation.AnnotateAllMentions = m == ModeTopicOnly }
}

// WithMinAnnotations sets the informativeness filter: pages producing
// fewer relation annotations are discarded (default 3, per §3.1.2).
func WithMinAnnotations(n int) Option {
	return func(p *Pipeline) { p.cfg.Relation.MinAnnotations = n }
}

// Pipeline is a configured CERES trainer bound to a seed KB. It is safe
// for concurrent use: any number of Train calls may run at once.
type Pipeline struct {
	// kb is NewPipeline's seed KB, the caller's; it never changes. A
	// NewPipelineTSV pipeline has no kb: it keeps kbText, the KB's
	// serialization, and kbDigest for life, and holds ix, the annotation
	// index built from the text, under kbMu from its first Train to
	// ReleaseKB.
	kb       *KB
	kbText   []byte
	kbDigest string
	kbMu     sync.Mutex
	ix       *kb.Index

	cfg       core.Config
	threshold float64
	// gate admits one Train call at a time into its page-holding half
	// (see Train). It belongs to the Pipeline, not to a caller, so every
	// way of training concurrently — a batch.Runner's workers, plain
	// goroutines — gets the same memory bound.
	gate chan struct{}

	mu                sync.Mutex // guards the fields below
	training, holding int        // Train calls in flight; of those, past the gate and still holding pages
	stats             TrainStats
}

// prepareWidth is how many sites may hold parsed pages at once. A site's
// prepared pages — fields, normalized texts and XPaths — and what
// annotation builds over them are the peak of training memory (some 16 MB
// live in all for 200 pages, the seed KB's index included), and preparing
// is already page-parallel inside, so a second site in that phase adds
// memory and no speed; what is worth overlapping is the fit, which is
// serial and holds next to nothing.
const prepareWidth = 1

// NewPipeline builds a pipeline over the seed KB.
func NewPipeline(k *KB, opts ...Option) *Pipeline {
	p := &Pipeline{
		kb:        k,
		cfg:       core.Config{Train: core.TrainOptions{Seed: 1}},
		threshold: 0.5,
		gate:      make(chan struct{}, prepareWidth),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// NewPipelineTSV builds a pipeline over the seed KB whose serialization
// (see KB.Write) is text, returning ReadKB's error for malformed text.
// The pipeline keeps the text, and the KB's digest for TrainingKey, for
// as long as it lives; it digests the text in one pass that builds no KB
// (kb.DigestTSV), and never holds a parsed KB past the call that parses
// one. Training is what reads a seed KB — extraction never does —
// and it reads it only through the KB's annotation index: the first Train
// parses the text, builds the index, keeps the index and drops the KB. A
// caller that may train nothing, such as a harvest whose sites all have
// models, never builds the index, and one that has trained what it will
// (a harvest whose every site has resolved) drops it with ReleaseKB. The
// pipeline owns text; it must not be modified.
func NewPipelineTSV(text []byte, opts ...Option) (*Pipeline, error) {
	digest, err := kb.DigestTSV(text)
	if err != nil {
		return nil, err
	}
	p := NewPipeline(nil, opts...)
	p.kbText, p.kbDigest = text, digest
	return p, nil
}

// TrainStats counts what a Pipeline's Train calls did since it was built.
type TrainStats struct {
	// Sites counts the calls admitted to prepare their site; Wait sums the
	// time they queued for that admission.
	Sites int
	Wait  time.Duration
	// PeakTraining is the most calls that were in flight at one instant,
	// PeakHolding the most of them that held parsed pages: the width of
	// the prepare gate, 1, whatever the callers' concurrency.
	PeakTraining, PeakHolding int
}

// TrainStats returns the pipeline's training counters; a nil pipeline
// has trained nothing.
func (p *Pipeline) TrainStats() TrainStats {
	if p == nil {
		return TrainStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Train runs the training phase — parse, template-cluster, annotate
// against the seed KB, and fit one node classifier per template cluster —
// over the pages of one website (they should come from a single site:
// CERES learns one extractor per site template). The returned SiteModel
// extracts from any number of further pages without retraining.
//
// Training has two halves. Preparing reads the pages and ends with the
// distinct training rows of every trainable cluster; fitting runs the
// optimizer over those rows and needs neither the parsed pages nor the
// ones passed in. Concurrent calls prepare one at a time — a call waits
// its turn, and gives up waiting when ctx is cancelled — and fit
// concurrently, so training many sites at once costs the memory of one
// site's pages, not of all of them.
//
// Train returns ErrNoPages for an empty page set, ErrNoSeedKB when the
// pipeline was built over a nil KB, ErrNoAnnotations when the seed KB
// aligned with too few pages to train any cluster, and ctx.Err() when
// cancelled.
func (p *Pipeline) Train(ctx context.Context, pages []PageSource) (*SiteModel, error) {
	p.mu.Lock()
	p.training++
	p.stats.PeakTraining = max(p.stats.PeakTraining, p.training)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.training--
		p.mu.Unlock()
	}()
	// When prepare returns, its frame — the core sources and every parsed
	// page — is gone, and pages is not used below: nothing the fits run
	// beside keeps this site's pages reachable.
	prep, err := p.prepare(ctx, pages)
	if err != nil {
		return nil, err
	}
	if len(prep.Fits) == 0 {
		return nil, ErrNoAnnotations
	}
	if err := prep.Fit(ctx); err != nil {
		return nil, err
	}
	m := newSiteModel(prep.Site, p.threshold)
	for _, f := range prep.Fits {
		m.fits = append(m.fits, f.Stats)
	}
	return m, nil
}

// prepare is Train's page-holding half, run inside the gate. On ctx's span
// it leaves a "wait" child (queueing for the gate) and held_ns (gate
// acquired to gate released).
func (p *Pipeline) prepare(ctx context.Context, pages []PageSource) (*core.Prepared, error) {
	src, err := toSources(pages)
	if err != nil {
		return nil, err
	}
	tsp := trace.FromContext(ctx)
	wsp := tsp.StartChild("wait")
	queued := time.Now()
	select {
	case p.gate <- struct{}{}:
	case <-ctx.Done():
		wsp.EndErr(ctx.Err())
		return nil, ctx.Err()
	}
	wsp.End()
	acquired := time.Now()
	p.mu.Lock()
	p.holding++
	p.stats.Sites++
	p.stats.Wait += acquired.Sub(queued)
	p.stats.PeakHolding = max(p.stats.PeakHolding, p.holding)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.holding--
		p.mu.Unlock()
		tsp.SetInt("held_ns", int64(time.Since(acquired)))
		<-p.gate
	}()
	ix, err := p.seedIndex()
	if err != nil {
		return nil, err
	}
	return core.PrepareSite(ctx, src, ix, p.cfg)
}

// seedIndex returns the annotation index of the pipeline's seed KB: the
// caller's KB's for a NewPipeline pipeline, and for a NewPipelineTSV one
// the index it holds, built from its text — which is parsed, and the KB
// dropped — when it holds none.
func (p *Pipeline) seedIndex() (*kb.Index, error) {
	if p.kb != nil {
		return p.kb.BuildIndex(), nil
	}
	if p.kbDigest == "" {
		return nil, ErrNoSeedKB
	}
	p.kbMu.Lock()
	defer p.kbMu.Unlock()
	if p.ix == nil {
		k, err := ReadKB(bytes.NewReader(p.kbText))
		if err != nil {
			return nil, err
		}
		p.ix = k.BuildIndex()
	}
	return p.ix, nil
}

// ReleaseKB tells the pipeline that no Train call is coming. A
// NewPipelineTSV pipeline then drops its seed KB's annotation index and
// holds its text alone, as before its first Train; a later Train parses
// the text again and trains under the same TrainingKey to the same model
// bytes. A Train already under way keeps the index it has. For a
// NewPipeline pipeline, whose KB belongs to the caller, and a nil one,
// ReleaseKB does nothing.
func (p *Pipeline) ReleaseKB() {
	if p == nil || p.kbDigest == "" {
		return
	}
	p.kbMu.Lock()
	p.ix = nil
	p.kbMu.Unlock()
}

// TrainingKey identifies every input of Train other than the pages: the
// seed KB's contents (KB.Digest) and the pipeline's whole configuration,
// hashed. Two pipelines with equal keys train the same model from the
// same pages, or fail on them the same way — which is what lets a
// ModelStore remember a site as untrainable across runs
// (ModelStore.Untrainable) without ever outliving a KB that has grown or
// an option that has changed.
func (p *Pipeline) TrainingKey() string {
	digest := p.kbDigest
	switch {
	case digest != "":
	case p.kb != nil:
		digest = p.kb.Digest()
	default:
		digest = "none" // no hex digest reads so
	}
	h := sha256.New()
	fmt.Fprintf(h, "kb %s\nthreshold %v\nconfig %+v\n", digest, p.threshold, p.cfg)
	return hex.EncodeToString(h.Sum(nil))
}

// SiteModel is a trained, self-contained extractor for one website: the
// per-template-cluster classifiers, featurizers and cluster signatures
// learned by Pipeline.Train. It serves pages that were never part of
// training by routing each to the most similar cluster. A SiteModel is
// safe for concurrent use and persists across processes via WriteBinary /
// ReadSiteModel.
type SiteModel struct {
	sm *core.SiteModel
	// threshold holds math.Float64bits of the cutoff so SetThreshold can
	// race safely with concurrent serving.
	threshold atomic.Uint64
	// fits describes the training run; it is not part of the artifact.
	fits []FitStats
}

func newSiteModel(sm *core.SiteModel, threshold float64) *SiteModel {
	m := &SiteModel{sm: sm}
	m.SetThreshold(threshold)
	return m
}

// Threshold returns the extraction-confidence cutoff the model applies.
func (m *SiteModel) Threshold() float64 { return math.Float64frombits(m.threshold.Load()) }

// SetThreshold changes the extraction-confidence cutoff — retraining is
// never needed to trade precision for recall. It is safe to call while
// the model is serving; in-flight batches may observe either value.
func (m *SiteModel) SetThreshold(t float64) { m.threshold.Store(math.Float64bits(t)) }

// FitStats reports how one cluster classifier's fit went: examples,
// distinct rows the objective ran over, Newton steps, objective
// evaluations, Hessian–vector products, the gradient's final infinity
// norm, and whether it converged or stopped at its step cap.
type FitStats = mlr.FitStats

// Fits reports the classifier fits of the Train call that built the
// model, one per trained cluster in cluster order. It describes the
// training run, not the artifact: a model read back from disk has none.
func (m *SiteModel) Fits() []FitStats { return m.fits }

// TemplateClusters returns the number of template clusters the training
// site split into.
func (m *SiteModel) TemplateClusters() int {
	if m.sm == nil {
		return 0
	}
	return len(m.sm.Clusters)
}

// TrainedClusters returns how many clusters have a usable extractor.
func (m *SiteModel) TrainedClusters() int {
	if m.sm == nil {
		return 0
	}
	return m.sm.TrainedClusters()
}

// TrainPages returns the number of pages the model was trained on.
func (m *SiteModel) TrainPages() int {
	if m.sm == nil {
		return 0
	}
	return m.sm.TrainPages
}

// Extract applies the trained extractor to pages — typically pages the
// model has never seen — without any retraining. Each page is routed to
// the template cluster whose signature it most resembles. The Result's
// annotation statistics describe the training run; Pages counts the
// served pages.
//
// Extract returns ErrNotTrained on an untrained model, ErrNoPages for an
// empty page set, and ctx.Err() when cancelled.
func (m *SiteModel) Extract(ctx context.Context, pages []PageSource) (*Result, error) {
	src, err := toSources(pages)
	if err != nil {
		return nil, err
	}
	exts, err := m.sm.ExtractSources(ctx, src)
	if err != nil {
		return nil, err
	}
	out := &Result{
		AnnotatedPages:   m.sm.AnnotatedPages(),
		Annotations:      m.sm.Annotations(),
		TemplateClusters: len(m.sm.Clusters),
		Pages:            len(pages),
	}
	out.Triples = tripleize(exts, m.Threshold())
	return out, nil
}

// WriteBinary serializes the trained model so it can be reloaded in
// another process with ReadSiteModel: the `ceres.sitemodel/3` format of
// internal/binmodel (DESIGN.md §10), field-tagged binary that decodes
// without reflection or text parsing.
func (m *SiteModel) WriteBinary(w io.Writer) (int64, error) {
	if m.sm == nil {
		return 0, ErrNotTrained
	}
	return binmodel.Write(w, m.Threshold(), m.sm.State())
}

// ReadSiteModel deserializes a model written by SiteModel.WriteBinary.
func ReadSiteModel(r io.Reader) (*SiteModel, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ceres: reading site model: %w", err)
	}
	return readSiteModelBytes(data)
}

// readSiteModelBytes is ReadSiteModel over an in-memory file — the
// DirStore read path, which slurps version files whole.
func readSiteModelBytes(data []byte) (*SiteModel, error) {
	threshold, st, err := binmodel.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ceres: reading site model: %w", err)
	}
	sm, err := core.RestoreSiteModel(st)
	if err != nil {
		return nil, fmt.Errorf("ceres: reading site model: %w", err)
	}
	return newSiteModel(sm, threshold), nil
}

// toSources validates public pages into core sources.
func toSources(pages []PageSource) ([]core.PageSource, error) {
	if len(pages) == 0 {
		return nil, ErrNoPages
	}
	src := make([]core.PageSource, len(pages))
	for i, pg := range pages {
		if pg.ID == "" {
			return nil, fmt.Errorf("%w: page %d has an empty ID", ErrInvalidPage, i)
		}
		src[i] = core.PageSource{ID: pg.ID, HTML: pg.HTML}
	}
	return src, nil
}

func toTriple(e core.Extraction) Triple {
	return Triple{
		Subject:    e.Subject,
		Predicate:  e.Predicate,
		Object:     e.Value,
		Confidence: e.Confidence,
		Page:       e.PageID,
		Path:       e.Path,
	}
}

// tripleize thresholds and sorts extractions into the public triple order.
// It sorts the kept extractions' indices, comparing through pointers, so
// the sort moves 4-byte indices instead of pointerful 88-byte structs, and
// builds each Triple once, in its final place.
func tripleize(exts []core.Extraction, threshold float64) []Triple {
	kept := make([]int32, 0, len(exts))
	for i := range exts {
		if exts[i].Confidence >= threshold {
			kept = append(kept, int32(i))
		}
	}
	if len(kept) == 0 {
		return nil
	}
	slices.SortFunc(kept, func(i, j int32) int {
		a, b := &exts[i], &exts[j]
		switch {
		case a.Confidence > b.Confidence:
			return -1
		case a.Confidence < b.Confidence:
			return 1
		}
		if c := strings.Compare(a.PageID, b.PageID); c != 0 {
			return c
		}
		if c := strings.Compare(a.Predicate, b.Predicate); c != 0 {
			return c
		}
		if c := strings.Compare(a.Value, b.Value); c != 0 {
			return c
		}
		if c := strings.Compare(a.Subject, b.Subject); c != 0 {
			return c
		}
		return strings.Compare(a.Path, b.Path)
	})
	out := make([]Triple, len(kept))
	for k, i := range kept {
		out[k] = toTriple(exts[i])
	}
	return out
}

// SortTriples sorts triples into the canonical output order every
// extraction API uses: descending confidence, then page, predicate,
// object, subject, path. The subject and path tie-breaks make the order
// total, so equal-confidence triples — e.g. from multi-topic pages, or an
// object text repeated at two nodes of one page — come out
// deterministically. Use it to restore the canonical order after merging
// triples from several extractions (e.g. the shards of a batch harvest).
func SortTriples(ts []Triple) {
	// Sort a permutation, comparing through pointers, then move each
	// triple once along the permutation's cycles.
	perm := make([]int32, len(ts))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int { return compareTriples(&ts[i], &ts[j]) })
	for i := range perm {
		if perm[i] < 0 {
			continue
		}
		held, j := ts[i], int32(i)
		for perm[j] != int32(i) {
			next := perm[j]
			ts[j], perm[j] = ts[next], -1
			j = next
		}
		ts[j], perm[j] = held, -1
	}
}

// compareTriples is SortTriples' order.
func compareTriples(a, b *Triple) int {
	switch {
	case a.Confidence > b.Confidence:
		return -1
	case a.Confidence < b.Confidence:
		return 1
	}
	if c := strings.Compare(a.Page, b.Page); c != 0 {
		return c
	}
	if c := strings.Compare(a.Predicate, b.Predicate); c != 0 {
		return c
	}
	if c := strings.Compare(a.Object, b.Object); c != 0 {
		return c
	}
	if c := strings.Compare(a.Subject, b.Subject); c != 0 {
		return c
	}
	return strings.Compare(a.Path, b.Path)
}
