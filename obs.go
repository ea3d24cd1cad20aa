package ceres

import (
	"context"

	"ceres/internal/obs"
	"ceres/internal/obs/trace"
)

// Metrics is the process-wide metrics registry of the serving stack
// (DESIGN.md §12): a stdlib-only Prometheus-text-format registry that the
// Service, Registry, ModelWatcher and batch Runner instrument themselves
// against. One Metrics is typically shared by every component of a
// process and exposed on GET /metrics via WritePrometheus.
type Metrics = obs.Registry

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Tracer is the serving stack's span tracer (DESIGN.md §13): 1-in-N
// request sampling, context-propagated span trees, a ring of retained
// completed traces, JSONL export. A nil *Tracer traces nothing, and a
// sampled-out request allocates nothing.
type Tracer = trace.Tracer

// TracerOptions configures NewTracer.
type TracerOptions = trace.Options

// Span is one timed node of a trace tree. A nil *Span is the universal
// "not traced" value; every method on it is a free no-op.
type Span = trace.Span

// NewTracer builds a tracer. SampleEvery 0 disables sampling (the
// tracer is valid but StartRoot always returns nil); SampleEvery 1
// traces every request.
func NewTracer(o TracerOptions) *Tracer { return trace.New(o) }

// ContextWithSpan returns ctx carrying s as the active span, unchanged
// when s is nil. Training runs observe it: Pipeline.Train hangs a wait
// child (queueing for the prepare gate) and the pipeline's
// parse/cluster/annotate/fit child spans off the context's active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return trace.ContextWith(ctx, s)
}

// SpanFromContext returns the active span in ctx, or nil.
func SpanFromContext(ctx context.Context) *Span { return trace.FromContext(ctx) }

// ConfidenceBuckets are the bounds of the per-site extraction-confidence
// histogram: ten uniform probability bins. Confidence collapse after a
// template change shows as mass sliding into the low buckets.
var ConfidenceBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// serviceMetrics is the Service's instrument panel. All fields are
// nil-safe (obs metrics no-op on nil receivers, and the whole struct may
// be nil on an uninstrumented service), so the serve path never branches
// on "is observability on" beyond one pointer test.
type serviceMetrics struct {
	requests *obs.CounterVec   // ceres_requests_total{site}
	errors   *obs.CounterVec   // ceres_request_errors_total{site}
	shed     *obs.Counter      // ceres_requests_shed_total
	pages    *obs.CounterVec   // ceres_pages_total{site}
	triples  *obs.CounterVec   // ceres_triples_total{site}
	latency  *obs.HistogramVec // ceres_request_latency_seconds{site}
	inflight *obs.Gauge        // ceres_inflight_requests

	// Extraction-quality drift signals (DESIGN.md §13): the families the
	// continuous-harvest loop will watch to decide when a site model has
	// gone stale.
	confidence    *obs.HistogramVec // ceres_extraction_confidence{site}
	emptyPages    *obs.CounterVec   // ceres_empty_pages_total{site}
	routingMisses *obs.CounterVec   // ceres_routing_miss_total{site}
	fields        *obs.CounterVec   // ceres_fields_total{site}
	contextMisses *obs.CounterVec   // ceres_context_misses_total{site}
}

// unknownSiteLabel is the site label recorded for requests that failed
// before resolving to a registered site. Using one fixed value keeps a
// scanner probing random site names from minting unbounded label
// cardinality.
const unknownSiteLabel = "_unknown"

func newServiceMetrics(m *Metrics) *serviceMetrics {
	if m == nil {
		return nil
	}
	return &serviceMetrics{
		requests: m.CounterVec("ceres_requests_total",
			"Extraction requests admitted, by site.", "site"),
		errors: m.CounterVec("ceres_request_errors_total",
			"Extraction requests that failed (site _unknown: before resolving), by site.", "site"),
		shed: m.Counter("ceres_requests_shed_total",
			"Requests rejected by bounded admission (ErrOverloaded)."),
		pages: m.CounterVec("ceres_pages_total",
			"Pages served, by site.", "site"),
		triples: m.CounterVec("ceres_triples_total",
			"Triples emitted at or above the request threshold, by site.", "site"),
		latency: m.HistogramVec("ceres_request_latency_seconds",
			"Request serving latency in seconds, by site.", "site", obs.DefBuckets),
		inflight: m.Gauge("ceres_inflight_requests",
			"Extraction requests currently being served."),
		confidence: m.HistogramVec("ceres_extraction_confidence",
			"Confidence of every extraction before thresholding, by site.", "site", ConfidenceBuckets),
		emptyPages: m.CounterVec("ceres_empty_pages_total",
			"Served pages that produced no extraction at all, by site.", "site"),
		routingMisses: m.CounterVec("ceres_routing_miss_total",
			"Served pages routed to no cluster or an untrained one, by site.", "site"),
		fields: m.CounterVec("ceres_fields_total",
			"Text fields scored, by site.", "site"),
		contextMisses: m.CounterVec("ceres_context_misses_total",
			"Scored fields whose structural context the serving worker had not met before, by site.", "site"),
	}
}

// confidenceFor returns the site's confidence histogram, nil when the
// service is uninstrumented; requests capture it once, not per triple.
func (sm *serviceMetrics) confidenceFor(site string) *obs.Histogram {
	if sm == nil {
		return nil
	}
	return sm.confidence.With(site)
}

// admitted records a request entering service; done undoes it.
func (sm *serviceMetrics) admitted() {
	if sm == nil {
		return
	}
	sm.inflight.Add(1)
}

func (sm *serviceMetrics) done() {
	if sm == nil {
		return
	}
	sm.inflight.Add(-1)
}

// requestShed records a bounded-admission rejection.
func (sm *serviceMetrics) requestShed() {
	if sm == nil {
		return
	}
	sm.shed.Inc()
}

// requestFailed records a failed request. site may be "" when the
// failure happened before the request resolved to a registered site.
func (sm *serviceMetrics) requestFailed(site string) {
	if sm == nil {
		return
	}
	if site == "" {
		site = unknownSiteLabel
	}
	sm.errors.With(site).Inc()
}

// requestServed records one successful request's serve-side outcome.
func (sm *serviceMetrics) requestServed(site string, stats ServeStats) {
	if sm == nil {
		return
	}
	sm.requests.With(site).Inc()
	sm.pages.With(site).Add(int64(stats.Pages))
	sm.triples.With(site).Add(int64(stats.Triples))
	sm.latency.With(site).Observe(stats.Latency.Seconds())
	sm.emptyPages.With(site).Add(int64(stats.EmptyPages))
	sm.routingMisses.With(site).Add(int64(stats.RoutingMisses))
	sm.fields.With(site).Add(int64(stats.Fields))
	sm.contextMisses.With(site).Add(int64(stats.ContextMisses))
}

// SiteDriftStats is the per-site extraction-quality snapshot served by
// Service.SiteStats and GET /v1/sites/{site}/stats: the drift signals
// (routing-miss rate, empty-extraction rate, confidence distribution)
// read back from the same metric families /metrics exposes, so the two
// views can never disagree.
type SiteDriftStats struct {
	Site         string `json:"site"`
	ModelVersion int    `json:"modelVersion"`

	// Requests/Pages/Triples are the site's cumulative serve counters.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	Pages    int64 `json:"pages"`
	Triples  int64 `json:"triples"`

	// EmptyPages and RoutingMisses are the raw drift counters; the rates
	// normalize them by Pages (0 when no pages were served yet).
	EmptyPages      int64   `json:"emptyPages"`
	RoutingMisses   int64   `json:"routingMisses"`
	EmptyPageRate   float64 `json:"emptyPageRate"`
	RoutingMissRate float64 `json:"routingMissRate"`

	// MeanConfidence averages every extraction's confidence before
	// thresholding; Confidence is the full distribution.
	MeanConfidence float64             `json:"meanConfidence"`
	Confidence     ConfidenceHistogram `json:"confidence"`
}

// ConfidenceHistogram is the snapshot form of the per-site confidence
// distribution: Counts[i] observations at confidence <= Bounds[i], with
// one trailing overflow entry.
type ConfidenceHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// SiteStats snapshots the drift signals of one registered site. It
// reports ok=false when the site is not registered or the service is
// uninstrumented (no WithMetrics): drift detection without metrics has
// nothing to read.
func (s *Service) SiteStats(site string) (SiteDriftStats, bool) {
	if s.metrics == nil {
		return SiteDriftStats{}, false
	}
	e, ok := s.reg.Lookup(site)
	if !ok {
		return SiteDriftStats{}, false
	}
	m := s.metrics
	st := SiteDriftStats{
		Site:          site,
		ModelVersion:  e.Version,
		Requests:      m.requests.With(site).Value(),
		Errors:        m.errors.With(site).Value(),
		Pages:         m.pages.With(site).Value(),
		Triples:       m.triples.With(site).Value(),
		EmptyPages:    m.emptyPages.With(site).Value(),
		RoutingMisses: m.routingMisses.With(site).Value(),
	}
	if st.Pages > 0 {
		st.EmptyPageRate = float64(st.EmptyPages) / float64(st.Pages)
		st.RoutingMissRate = float64(st.RoutingMisses) / float64(st.Pages)
	}
	h := m.confidence.With(site)
	st.Confidence = ConfidenceHistogram{
		Bounds: h.Bounds(),
		Counts: h.BucketCounts(),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	if st.Confidence.Count > 0 {
		st.MeanConfidence = st.Confidence.Sum / float64(st.Confidence.Count)
	}
	return st, true
}

// Instrument registers the registry's fleet-level metrics on m:
// cumulative hot-swap count (ceres_registry_swaps_total), registered
// site count (ceres_registry_sites) and the per-site serving model
// version (ceres_model_version{site}). Values are read live at
// exposition time, so Instrument is called once, not per publish.
func (r *Registry) Instrument(m *Metrics) {
	if m == nil {
		return
	}
	m.CounterFunc("ceres_registry_swaps_total",
		"Model publishes (hot swaps) applied to the registry since boot.",
		func() float64 { return float64(r.Swaps()) })
	m.GaugeFunc("ceres_registry_sites",
		"Sites currently registered for serving.",
		func() float64 { return float64(r.Len()) })
	m.GaugeVecFunc("ceres_model_version",
		"Model version currently serving each site.", "site",
		func(emit func(string, float64)) {
			for _, e := range r.Snapshot() {
				emit(e.Site, float64(e.Version))
			}
		})
}
