package ceres

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ceres/internal/core"
)

// ErrUnknownSite reports an extraction request for a site the registry is
// not serving; test with errors.Is.
var ErrUnknownSite = errors.New("ceres: site not registered")

// ErrOverloaded reports a request shed by bounded admission: every
// inflight slot was busy and none freed up within the service's
// admission wait. It is a load signal, not a fault — HTTP frontends map
// it to 429 so shed traffic stays out of the 5xx error budget; test with
// errors.Is.
var ErrOverloaded = errors.New("ceres: service overloaded")

// RequestOptions are per-request serving overrides. They replace
// cross-request model mutation: two concurrent requests with different
// options each observe exactly their own settings, and the model itself is
// never touched.
type RequestOptions struct {
	// Threshold overrides the model's confidence cutoff for this request
	// only; nil applies the model's threshold.
	Threshold *float64
	// Workers bounds this request's page parallelism; 0 uses the serving
	// process's default.
	Workers int
}

// ExtractRequest asks a Service to extract triples from pages of one site.
type ExtractRequest struct {
	// Site selects the registered model that serves the pages.
	Site string
	// Pages are the pages to extract from; they need not have been seen
	// at training time.
	Pages []PageSource
	// Options tunes this request only.
	Options RequestOptions
}

// ServeStats are the serve-side statistics of one request — what the
// request did, as opposed to Result's training-run statistics.
type ServeStats struct {
	// Pages is the number of pages served.
	Pages int
	// Triples counts emitted triples (at or above the effective
	// threshold).
	Triples int
	// RoutedClusters counts the distinct template clusters pages routed
	// to.
	RoutedClusters int
	// EmptyPages counts served pages that produced no extraction at all
	// (before thresholding) — the drift signal for a template the model
	// no longer fits.
	EmptyPages int
	// RoutingMisses counts pages routed to no cluster or an untrained
	// one; rising values mean traffic has drifted off the trained
	// templates.
	RoutingMisses int
	// Fields counts the text fields scored. ContextMisses counts those
	// whose structural context the serving worker had not met before, so
	// the feature walk and the classifier ran for them; every other field
	// copied a remembered row. A template repeats its contexts, so a
	// rising miss share is the EmptyPages signal one level down.
	// ContextUncached counts the misses that could not be remembered (the
	// site has more distinct contexts than a worker keeps for one model)
	// and CacheEvictions the models whose contexts a worker forgot to
	// make room for another's, or, on a scan, because it serves one site.
	Fields          int
	ContextMisses   int
	ContextUncached int
	CacheEvictions  int
	// Latency is the request's wall-clock serving time.
	Latency time.Duration
	// Stages is the request's serve time by stage.
	Stages StageBreakdown
}

// StageBreakdown is one request's serve time by stage — Parse
// (tokenization), Route (template-cluster routing) and Score
// (featurize+classify+assemble) — summed across the request's worker
// pool, so the stages may legitimately add up to more than Latency.
type StageBreakdown = core.StageTimes

// stageSpans attaches the aggregate stage timings as pre-measured child
// spans of a traced request's extract span.
func stageSpans(esp *Span, st StageBreakdown) {
	if esp == nil {
		return
	}
	esp.AddTimed("parse", st.Parse)
	esp.AddTimed("route", st.Route)
	esp.AddTimed("score", st.Score)
}

// ExtractResponse is the outcome of one Service extraction request.
type ExtractResponse struct {
	// Site and Version identify the model that served the request.
	Site    string
	Version int
	// Threshold is the confidence cutoff the request was served under.
	Threshold float64
	// Triples holds the extractions, sorted by descending confidence then
	// page, predicate, object, subject.
	Triples []Triple
	// Stats reports what serving this request did.
	Stats ServeStats
}

// ServiceOption configures a Service.
type ServiceOption func(*Service)

// WithMaxInflight bounds how many extraction requests the service runs at
// once (default unbounded). Requests beyond the bound wait for a slot,
// honouring their context's cancellation — the worker-bounded request
// limiter of a serving daemon.
func WithMaxInflight(n int) ServiceOption {
	return func(s *Service) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// WithAdmissionWait bounds how long a request may wait for an inflight
// slot before being shed with ErrOverloaded (load-shedding on top of
// WithMaxInflight). d <= 0 sheds immediately when every slot is busy.
// Without this option a request queues until its own context gives up —
// unbounded queueing, the behavior a daemon under sustained overload
// must not have. The option is inert unless WithMaxInflight is also set.
func WithAdmissionWait(d time.Duration) ServiceOption {
	return func(s *Service) {
		s.admissionWait = d
		s.boundedAdmission = true
	}
}

// WithMetrics instruments the service against a metrics registry:
// per-site request/page/triple counters, request latency histograms, an
// inflight gauge, shed and error counters, plus the extraction-quality
// drift families (confidence histogram, empty-page and routing-miss
// counters; DESIGN.md §12–13). The per-request cost is a handful of
// atomic adds; a nil registry leaves the service uninstrumented.
func WithMetrics(m *Metrics) ServiceOption {
	return func(s *Service) {
		s.metrics = newServiceMetrics(m)
	}
}

// WithTracer attaches a span tracer: requests that win the tracer's
// 1-in-N sampling draw record a span tree (admission → lookup →
// extract[parse, route, score] → fuse) retained in the tracer's ring
// for /debug/traces. A sampled-out request pays one atomic add and
// allocates nothing; a nil tracer leaves the service untraced.
func WithTracer(t *Tracer) ServiceOption {
	return func(s *Service) {
		s.tracer = t
	}
}

// Service is the request-scoped extraction API over a Registry: stateless,
// safe for any number of concurrent callers, and tunable per request
// instead of by mutating models. Models hot-swapped into the registry are
// picked up by the next request; in-flight requests finish on the model
// they started with.
type Service struct {
	reg *Registry
	sem chan struct{} // nil = unbounded
	// boundedAdmission switches acquire from queue-until-cancelled to
	// shed-after-admissionWait (WithAdmissionWait).
	boundedAdmission bool
	admissionWait    time.Duration
	metrics          *serviceMetrics // nil = uninstrumented
	tracer           *Tracer         // nil = untraced
}

// NewService builds a service over a registry.
func NewService(reg *Registry, opts ...ServiceOption) *Service {
	s := &Service{reg: reg}
	for _, o := range opts {
		o(s)
	}
	return s
}

// acquire takes an inflight slot. It fails with ctx's error when the
// caller gives up first, or — under bounded admission — with
// ErrOverloaded when no slot frees up within the admission wait.
// Successful admission is recorded on the inflight gauge; release undoes
// both the slot and the gauge.
func (s *Service) acquire(ctx context.Context) error {
	if s.sem == nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.metrics.admitted()
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		s.metrics.admitted()
		return nil
	default:
	}
	if s.boundedAdmission {
		if s.admissionWait <= 0 {
			s.metrics.requestShed()
			return ErrOverloaded
		}
		t := time.NewTimer(s.admissionWait)
		defer t.Stop()
		select {
		case s.sem <- struct{}{}:
			s.metrics.admitted()
			return nil
		case <-t.C:
			s.metrics.requestShed()
			return ErrOverloaded
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case s.sem <- struct{}{}:
		s.metrics.admitted()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Service) release() {
	s.metrics.done()
	if s.sem != nil {
		<-s.sem
	}
}

// lookup finds a site's model.
func (s *Service) lookup(site string) (RegisteredModel, error) {
	e, ok := s.reg.Lookup(site)
	if !ok {
		return RegisteredModel{}, fmt.Errorf("%w: %q", ErrUnknownSite, site)
	}
	return e, nil
}

// serve is the one request path behind every Extract* method: root span,
// admission, model lookup, then run — the model call, under the extract
// span — and the stats/metrics epilogue. run's extractions feed the
// confidence histogram and are thresholded into the response under the
// fuse span, at opts' threshold as run leaves it: a feed may only learn
// it once its last page is read.
func (s *Service) serve(ctx context.Context, span, site string, opts *RequestOptions,
	run func(*core.SiteModel) ([]core.Extraction, *core.ServeStats, error)) (*ExtractResponse, error) {
	// The root span is ended exactly once, by the deferred End; error
	// paths record their error with SetErr and let the defer close it.
	sp := s.tracer.StartRoot(span)
	defer sp.End()
	sp.SetStr("site", site)
	asp := sp.StartChild("admission")
	if err := s.acquire(ctx); err != nil {
		asp.EndErr(err)
		sp.SetErr(err)
		return nil, err
	}
	asp.End()
	defer s.release()
	start := time.Now()
	lsp := sp.StartChild("lookup")
	e, err := s.lookup(site)
	lsp.EndErr(err)
	if err != nil {
		sp.SetErr(err)
		s.metrics.requestFailed("")
		return nil, err
	}
	sp.SetInt("version", int64(e.Version))
	esp := sp.StartChild("extract")
	exts, stats, err := run(e.Model.sm)
	if err != nil {
		esp.EndErr(err)
		sp.SetErr(err)
		s.metrics.requestFailed(e.Site)
		return nil, err
	}
	stageSpans(esp, stats.Stages)
	esp.End()
	threshold := e.Model.Threshold()
	if opts.Threshold != nil {
		threshold = *opts.Threshold
	}
	s.observeConfidences(e.Site, exts)
	fsp := sp.StartChild("fuse")
	triples := tripleize(exts, threshold)
	fsp.End()
	resp := &ExtractResponse{
		Site: e.Site, Version: e.Version, Threshold: threshold, Triples: triples,
		Stats: ServeStats{
			Pages:           stats.Pages,
			Triples:         len(triples),
			RoutedClusters:  stats.RoutedClusters(),
			EmptyPages:      stats.EmptyPages,
			RoutingMisses:   stats.RoutingMisses,
			Fields:          stats.Fields,
			ContextMisses:   stats.ContextMisses,
			ContextUncached: stats.ContextUncached,
			CacheEvictions:  stats.CacheEvictions,
			Latency:         time.Since(start),
			Stages:          stats.Stages,
		},
	}
	sp.SetInt("pages", int64(resp.Stats.Pages))
	sp.SetInt("triples", int64(resp.Stats.Triples))
	s.metrics.requestServed(e.Site, resp.Stats)
	return resp, nil
}

// Extract serves one extraction request: route every page of the request
// to its template cluster, extract, threshold at the request's (or the
// model's) cutoff, and report serve-side statistics.
//
// Extract returns ErrUnknownSite for a site the registry is not serving,
// ErrNoPages for an empty page set, ErrInvalidPage for a page with an
// empty ID, ErrNotTrained when the registered model has no trained
// extractor, and ctx.Err() when cancelled.
func (s *Service) Extract(ctx context.Context, req ExtractRequest) (*ExtractResponse, error) {
	return s.serve(ctx, "service.extract", req.Site, &req.Options,
		func(sm *core.SiteModel) ([]core.Extraction, *core.ServeStats, error) {
			src, err := toSources(req.Pages)
			if err != nil {
				return nil, nil, err
			}
			return sm.ExtractSourcesOpts(ctx, src, core.ServeOptions{Workers: req.Options.Workers})
		})
}

// ExtractBytes is Extract for callers that hold their pages as bytes — a
// daemon's request buffer, decoded records — with pages fanned out over
// Options.Workers and streamed in place: no string conversion and no
// copy of any page. Pages are extracted as the feed delivers them, so a
// feed that decodes a request can hand over each page as it is decoded;
// the request's threshold and workers are read from opts once the feed
// has ended, which lets the feed set them from wherever they sit in the
// request. The page slices are only read during the call and never
// retained (triples own their strings), so they may alias a buffer the
// caller recycles once ExtractBytes returns. Spans, metrics, statistics,
// output order and the error contract are Extract's, with the feed's own
// error first: ExtractBytes reads the feed to its end even when the
// request fails before any page is extracted.
func (s *Service) ExtractBytes(ctx context.Context, site string, pages PageFeed, opts RequestOptions) (*ExtractResponse, error) {
	fed := false
	resp, err := s.serve(ctx, "service.extract", site, &opts,
		func(sm *core.SiteModel) ([]core.Extraction, *core.ServeStats, error) {
			fed = true
			return sm.ExtractBytesOpts(ctx, func(push func(PageBytes)) (core.ServeOptions, error) {
				err := pages.Feed(push, &opts)
				return core.ServeOptions{Workers: opts.Workers}, err
			})
		})
	if err != nil && !fed {
		if ferr := pages.Feed(func(PageBytes) {}, &opts); ferr != nil {
			return nil, ferr
		}
	}
	return resp, err
}

// observeConfidences feeds every extraction's pre-threshold confidence
// into the site's drift histogram. Uninstrumented services skip the
// loop entirely.
func (s *Service) observeConfidences(site string, exts []core.Extraction) {
	h := s.metrics.confidenceFor(site)
	if h == nil {
		return
	}
	for i := range exts {
		h.Observe(exts[i].Confidence)
	}
}

// ExtractScan serves one site's pages from raw bytes: scan drives a
// yield callback with (id, html) pairs — typically decoded pagestore
// record bytes — and the model's streaming serve path featurizes them in
// a single tokenizer pass, with no DOM and no []byte→string copy of the
// page. Pages are processed sequentially in yield order; the html slice
// is only read during its yield call and may be reused by the caller
// afterwards. Options.Workers is ignored — callers wanting parallelism
// run concurrent scans (the model is safe for concurrent serving) or,
// holding all pages at once, call ExtractBytes.
//
// The error contract matches Extract: ErrUnknownSite, ErrNotTrained,
// ErrNoPages (zero pages yielded), and ctx.Err() on cancellation.
func (s *Service) ExtractScan(ctx context.Context, site string, opts RequestOptions, scan func(yield func(id string, html []byte) error) error) (*ExtractResponse, error) {
	return s.serve(ctx, "service.extract_scan", site, &opts,
		func(sm *core.SiteModel) ([]core.Extraction, *core.ServeStats, error) {
			return sm.ExtractScanOpts(ctx, core.ServeOptions{Workers: opts.Workers}, scan)
		})
}
