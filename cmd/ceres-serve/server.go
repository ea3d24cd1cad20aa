package main

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ceres"
	"ceres/internal/jsonl"
	"ceres/internal/obs"
)

// maxModelBytes bounds a PUT model body (a serialized SiteModel is
// typically well under a megabyte; 256 MiB leaves room for huge sites
// while stopping an unbounded upload). maxExtractBytes bounds an extract
// request's page payload the same way — the daemon is long-lived, so no
// single request may buffer unbounded memory.
const (
	maxModelBytes   = 256 << 20
	maxExtractBytes = 256 << 20
)

// serverConfig wires the daemon's HTTP layer. Zero values mean: no
// store (registry-only), unbounded inflight, unbounded admission wait
// (legacy queueing), no rate limit, discard logs, fresh metrics.
type serverConfig struct {
	store ceres.ModelStore
	reg   *ceres.Registry
	// metrics is the process metrics registry served on /metrics; nil
	// creates one. newServer instruments the registry and service
	// against it, so pass one uninstrumented.
	metrics     *ceres.Metrics
	maxInflight int
	// admissionWait bounds how long a request waits for an inflight slot
	// before a 429 (ceres.ErrOverloaded). Zero or negative: wait until
	// the client gives up (the pre-fleet unbounded-queue behavior).
	admissionWait time.Duration
	// rateLimit is the per-site request rate (req/s, token bucket of
	// rateBurst capacity); 0 disables limiting.
	rateLimit float64
	rateBurst int
	// traceSample samples 1-in-N extract requests into span trees served
	// on GET /debug/traces; 0 disables tracing entirely (no tracer is
	// built, the endpoint 404s, and the serve path pays nothing).
	traceSample int
	// pprof exposes the runtime profiles under /debug/pprof/ (opt-in:
	// profiles reveal code structure and can cost CPU to capture).
	pprof  bool
	logger *slog.Logger
}

// server wires the store/registry/service stack into HTTP handlers, plus
// the operational armor: request IDs, structured access logs, /metrics,
// drain-aware readiness and per-site rate limits (DESIGN.md §12).
type server struct {
	store   ceres.ModelStore // nil: registry-only, models don't survive restarts
	reg     *ceres.Registry
	svc     *ceres.Service
	metrics *ceres.Metrics
	tracer  *ceres.Tracer // nil: tracing off, /debug/traces 404s
	log     *slog.Logger
	mux     *http.ServeMux
	limiter *rateLimiter // nil: no rate limiting
	// requests recycles extract-request buffers (request.go).
	requests requestPool

	// draining flips once at shutdown: /readyz goes 503 so load
	// balancers stop routing here, new extract/publish requests are
	// refused, and in-flight requests run to completion under the
	// http.Server drain. /healthz stays 200 — the process is alive.
	draining atomic.Bool

	// idPrefix + idSeq mint request IDs unique within and across
	// replicas (the prefix is random per process).
	idPrefix string
	idSeq    atomic.Uint64

	httpResponses *obs.CounterVec // ceres_http_responses_total{code}
	rateLimited   *obs.CounterVec // ceres_http_ratelimited_total{site}

	// pubMu makes store.Publish + reg.Publish one atomic step, so
	// concurrent PUTs can't hot-swap the registry to an older version than
	// the store's latest.
	pubMu sync.Mutex
}

// newServer builds the daemon's HTTP layer; the returned server is the
// root http.Handler.
func newServer(cfg serverConfig) *server {
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.metrics == nil {
		cfg.metrics = ceres.NewMetrics()
	}
	svcOpts := []ceres.ServiceOption{
		ceres.WithMaxInflight(cfg.maxInflight),
		ceres.WithMetrics(cfg.metrics),
	}
	if cfg.admissionWait > 0 {
		svcOpts = append(svcOpts, ceres.WithAdmissionWait(cfg.admissionWait))
	}
	var tracer *ceres.Tracer
	if cfg.traceSample > 0 {
		tracer = ceres.NewTracer(ceres.TracerOptions{SampleEvery: cfg.traceSample})
		tracer.Instrument(cfg.metrics)
		svcOpts = append(svcOpts, ceres.WithTracer(tracer))
	}
	var prefix [4]byte
	rand.Read(prefix[:]) //nolint:errcheck // crypto/rand.Read never fails
	s := &server{
		store:    cfg.store,
		reg:      cfg.reg,
		svc:      ceres.NewService(cfg.reg, svcOpts...),
		metrics:  cfg.metrics,
		tracer:   tracer,
		log:      cfg.logger,
		limiter:  newRateLimiter(cfg.rateLimit, cfg.rateBurst),
		requests: newRequestPool(),
		idPrefix: hex.EncodeToString(prefix[:]),
	}
	cfg.reg.Instrument(cfg.metrics)
	s.httpResponses = cfg.metrics.CounterVec("ceres_http_responses_total",
		"HTTP responses sent, by status code.", "code")
	s.rateLimited = cfg.metrics.CounterVec("ceres_http_ratelimited_total",
		"Requests rejected by the per-site rate limit, by site.", "site")

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sites/{site}/extract", s.handleExtract)
	mux.HandleFunc("PUT /v1/sites/{site}/model", s.handlePublish)
	mux.HandleFunc("GET /v1/sites", s.handleSites)
	mux.HandleFunc("GET /v1/sites/{site}/stats", s.handleSiteStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if cfg.pprof {
		// Gated, not ambient: the pprof handlers are wired onto this mux
		// only when asked for, so a default fleet exposes no profiles.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// StartDrain flips the server into drain mode: /readyz reports 503 and
// new extract/publish requests are refused with 503, while in-flight
// requests finish. Idempotent; there is no way back — drain precedes
// process exit.
func (s *server) StartDrain() { s.draining.Store(true) }

// requestInfo is what one request's context carries: its ID, and the
// sizes a handler fills in for the access log.
type requestInfo struct {
	id string
	// reqBytes is the request body's size: the bytes an extract request
	// actually read, Content-Length (when declared) otherwise.
	reqBytes int64
	pages    int // pages of an extract request
}

type requestInfoKey struct{}

func infoOf(ctx context.Context) *requestInfo {
	info, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return info
}

func requestID(ctx context.Context) string {
	if info := infoOf(ctx); info != nil {
		return info.id
	}
	return ""
}

// nextID mints a process-unique request ID.
func (s *server) nextID() string {
	return s.idPrefix + "-" + strconv.FormatUint(s.idSeq.Add(1), 10)
}

// ServeHTTP is the outermost handler: assign (or adopt) the request ID,
// dispatch, then emit one structured access-log line and count the
// response. Every response — success or error — carries X-Request-ID,
// so a fleet's logs are correlatable from either side; the line's
// req_bytes and pages make a slow request attributable to its size.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = s.nextID()
	}
	w.Header().Set("X-Request-ID", id)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	info := &requestInfo{id: id, reqBytes: max(r.ContentLength, 0)}
	r = r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, info))
	s.mux.ServeHTTP(sw, r)
	s.httpResponses.With(strconv.Itoa(sw.status)).Inc()
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.status),
		slog.Int64("bytes", sw.bytes),
		slog.Int64("req_bytes", info.reqBytes),
		slog.Int("pages", info.pages),
		slog.Duration("elapsed", time.Since(start)),
		slog.String("remote", r.RemoteAddr),
	)
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// wire types ------------------------------------------------------------

// The extract request and its 200 response have no wire struct: request.go
// reads the one straight from the body's bytes and appendExtractResponse
// writes the other straight from the service's triples.

type publishResponseJSON struct {
	Site             string `json:"site"`
	Version          int    `json:"version"`
	TemplateClusters int    `json:"templateClusters"`
	TrainedClusters  int    `json:"trainedClusters"`
}

type siteJSON struct {
	Site             string  `json:"site"`
	Version          int     `json:"version"`
	Threshold        float64 `json:"threshold"`
	TemplateClusters int     `json:"templateClusters"`
	TrainedClusters  int     `json:"trainedClusters"`
	TrainPages       int     `json:"trainPages"`
}

// errorJSON is every error body: the message plus the request ID, so a
// client-side report can be joined against the fleet's access logs.
type errorJSON struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// handlers --------------------------------------------------------------

func (s *server) handleExtract(w http.ResponseWriter, r *http.Request) {
	site := r.PathValue("site")
	if s.draining.Load() {
		s.fail(w, r, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	if s.limiter != nil && !s.limiter.allow(site, time.Now()) {
		s.rateLimited.With(site).Inc()
		s.fail(w, r, http.StatusTooManyRequests, fmt.Errorf("site %q over its request rate", site))
		return
	}
	// The pages alias the pooled request buffer and the response body is
	// built in the request's other one, so the request goes back to the
	// pool only when the handler returns: after the service call, whose
	// triples own their strings, and after the response is written.
	req := s.requests.get()
	defer s.requests.put(req)
	if !s.readExtract(w, r, req) {
		return
	}
	// The request is its own page feed: each page is extracted as soon as
	// it is decoded, and a malformed body still answers 400 (respondExtract).
	resp, err := s.svc.ExtractBytes(r.Context(), site, req, ceres.RequestOptions{})
	if errors.Is(err, errPagesRepeated) { // the pages that went out are not the request's
		resp, err = s.svc.ExtractBytes(r.Context(), site, ceres.PageSlice(req.pages), req.options())
	}
	s.respondExtract(w, r, req, resp, err)
}

// readExtract reads an extract request's body into req, answering 413 or
// 400 itself when that fails.
func (s *server) readExtract(w http.ResponseWriter, r *http.Request, req *extractRequest) bool {
	err := req.readFrom(http.MaxBytesReader(w, r.Body, maxExtractBytes), r.ContentLength)
	infoOf(r.Context()).reqBytes = int64(len(req.buf))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, r, status, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// respondExtract answers an extract request with the service's outcome,
// unless the body turned out malformed: that is a 400 whatever the
// service said.
func (s *server) respondExtract(w http.ResponseWriter, r *http.Request, req *extractRequest, resp *ceres.ExtractResponse, err error) {
	if req.err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("decoding request: %w", req.err))
		return
	}
	infoOf(r.Context()).pages = len(req.pages)
	if err != nil {
		s.fail(w, r, statusOf(err), err)
		return
	}
	// The body is built whole before any of it is sent, so a value with no
	// JSON form is a 500, not a 200 cut short.
	if req.out, err = appendExtractResponse(req.out[:0], resp); err != nil {
		s.fail(w, r, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(req.out)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(req.out); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "writing response",
			slog.String("error", err.Error()))
	}
}

// appendExtractResponse appends the extract endpoint's 200 body:
//
//	{"site","version","threshold","triples":[{subject,predicate,object,confidence,page,path}…],
//	 "stats":{pages,triples,routedClusters,latencyMs}}
//
// The bytes are exactly json.NewEncoder(w).Encode's for a struct of that
// shape, trailing newline included, with "triples" always an array and
// never null (FuzzExtractResponse holds the two together; clients and the
// repository benchmark compare bodies byte for byte). A NaN or infinite
// float has no JSON form: that is an error with encoding/json's message,
// and dst comes back as it was.
//
//ceres:allocfree
func appendExtractResponse(dst []byte, resp *ceres.ExtractResponse) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, `{"site":`...)
	dst = jsonl.AppendString(dst, resp.Site)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(resp.Version), 10)
	dst = append(dst, `,"threshold":`...)
	dst, err := jsonl.AppendFloat(dst, resp.Threshold)
	if err != nil {
		return dst[:mark], err
	}
	dst = append(dst, `,"triples":[`...)
	for i := range resp.Triples {
		t := &resp.Triples[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"subject":`...)
		dst = jsonl.AppendString(dst, t.Subject)
		dst = append(dst, `,"predicate":`...)
		dst = jsonl.AppendString(dst, t.Predicate)
		dst = append(dst, `,"object":`...)
		dst = jsonl.AppendString(dst, t.Object)
		dst = append(dst, `,"confidence":`...)
		if dst, err = jsonl.AppendFloat(dst, t.Confidence); err != nil {
			return dst[:mark], err
		}
		dst = append(dst, `,"page":`...)
		dst = jsonl.AppendString(dst, t.Page)
		dst = append(dst, `,"path":`...)
		dst = jsonl.AppendString(dst, t.Path)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"stats":{"pages":`...)
	dst = strconv.AppendInt(dst, int64(resp.Stats.Pages), 10)
	dst = append(dst, `,"triples":`...)
	dst = strconv.AppendInt(dst, int64(resp.Stats.Triples), 10)
	dst = append(dst, `,"routedClusters":`...)
	dst = strconv.AppendInt(dst, int64(resp.Stats.RoutedClusters), 10)
	dst = append(dst, `,"latencyMs":`...)
	if dst, err = jsonl.AppendFloat(dst, float64(resp.Stats.Latency.Microseconds())/1000); err != nil {
		return dst[:mark], err
	}
	return append(dst, '}', '}', '\n'), nil
}

func (s *server) handlePublish(w http.ResponseWriter, r *http.Request) {
	site := r.PathValue("site")
	if site == "" {
		s.fail(w, r, http.StatusBadRequest, errors.New("empty site name"))
		return
	}
	if s.draining.Load() {
		s.fail(w, r, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	m, err := ceres.ReadSiteModel(http.MaxBytesReader(w, r.Body, maxModelBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.fail(w, r, status, err)
		return
	}
	var version int
	if s.store != nil {
		s.pubMu.Lock()
		if version, err = s.store.Publish(site, m); err != nil {
			s.pubMu.Unlock()
			s.fail(w, r, http.StatusInternalServerError, err)
			return
		}
		s.reg.Publish(site, version, m)
		s.pubMu.Unlock()
	} else {
		version = s.reg.PublishNext(site, m)
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "published",
		slog.String("id", requestID(r.Context())),
		slog.String("site", site),
		slog.Int("version", version),
		slog.Int("trainedClusters", m.TrainedClusters()),
		slog.Int("templateClusters", m.TemplateClusters()),
	)
	s.reply(w, http.StatusOK, publishResponseJSON{
		Site:             site,
		Version:          version,
		TemplateClusters: m.TemplateClusters(),
		TrainedClusters:  m.TrainedClusters(),
	})
}

func (s *server) handleSites(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	out := make([]siteJSON, len(snap))
	for i, e := range snap {
		out[i] = siteJSON{
			Site:             e.Site,
			Version:          e.Version,
			Threshold:        e.Model.Threshold(),
			TemplateClusters: e.Model.TemplateClusters(),
			TrainedClusters:  e.Model.TrainedClusters(),
			TrainPages:       e.Model.TrainPages(),
		}
	}
	s.reply(w, http.StatusOK, out)
}

// handleSiteStats serves one site's extraction-quality drift snapshot:
// the same confidence/empty-page/routing-miss signals /metrics exposes,
// resolved per site and normalized into rates — what a continuous
// harvest loop polls to decide a model has gone stale.
func (s *server) handleSiteStats(w http.ResponseWriter, r *http.Request) {
	site := r.PathValue("site")
	st, ok := s.svc.SiteStats(site)
	if !ok {
		s.fail(w, r, http.StatusNotFound, fmt.Errorf("site %q: %w", site, ceres.ErrUnknownSite))
		return
	}
	s.reply(w, http.StatusOK, st)
}

// handleTraces streams the tracer's retained span trees as NDJSON, one
// root trace per line, oldest first. 404 when the daemon runs untraced.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.fail(w, r, http.StatusNotFound, errors.New("tracing disabled (start with -trace-sample N)"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.tracer.WriteJSONL(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "writing traces",
			slog.String("error", err.Error()))
	}
}

// handleHealthz is liveness: 200 as long as the process serves HTTP,
// drain included — a draining replica must not be restarted by its
// supervisor.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reply(w, http.StatusOK, map[string]any{"status": "ok", "sites": s.reg.Len()})
}

// handleReadyz is readiness: 503 while draining, so load balancers stop
// routing new work here while in-flight requests finish.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reply(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	s.reply(w, http.StatusOK, map[string]any{"status": "ready", "sites": s.reg.Len()})
}

// handleMetrics serves the Prometheus text exposition. It stays up
// during drain: the final scrape of a terminating replica is the one
// that records its shed/drain counters.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WritePrometheus(w); err != nil {
		s.log.LogAttrs(r.Context(), slog.LevelWarn, "writing metrics",
			slog.String("error", err.Error()))
	}
}

// helpers ---------------------------------------------------------------

// statusOf maps service errors onto HTTP statuses. ErrOverloaded is the
// load-shed signal — 429, distinguishable from real faults. Context
// errors are not server faults either: the client went away, or gave up
// waiting for an inflight slot — 503 keeps load-shedding out of the
// 5xx-error signal operators alert on.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ceres.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ceres.ErrUnknownSite):
		return http.StatusNotFound
	case errors.Is(err, ceres.ErrNotTrained):
		return http.StatusConflict
	case errors.Is(err, ceres.ErrNoPages), errors.Is(err, ceres.ErrInvalidPage):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) reply(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "writing response",
			slog.String("error", err.Error()))
	}
}

func (s *server) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.reply(w, status, errorJSON{Error: err.Error(), RequestID: requestID(r.Context())})
}
