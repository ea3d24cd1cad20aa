// Package ceres is a from-scratch Go implementation of CERES — distantly
// supervised relation extraction from semi-structured websites (Lockard,
// Dong, Einolghozati, Shiralkar; VLDB 2018, arXiv:1804.04635).
//
// Given the detail pages of a template-generated website and a seed
// knowledge base, a Pipeline automatically annotates the pages by aligning
// them with the KB (topic identification + relation annotation), trains a
// logistic-regression node classifier over DOM features, and extracts new
// (subject, predicate, object) triples — including triples about entities
// the seed KB has never heard of — each with a calibrated confidence.
//
// The API splits the lifecycle in two. Training is the expensive,
// KB-dependent phase and runs once per site; it produces a SiteModel, the
// cheap, self-contained serving artifact:
//
//	k := ceres.NewKB(ceres.NewOntology(
//	    ceres.Predicate{Name: "directedBy", Domain: "film", Range: "person"},
//	))
//	// ... add seed entities and triples ...
//	p := ceres.NewPipeline(k, ceres.WithThreshold(0.75))
//	model, err := p.Train(ctx, trainPages)        // parse→cluster→annotate→train
//	result, err := model.Extract(ctx, newPages)   // serve any pages, no retraining
//
// A SiteModel persists across processes (WriteBinary / ReadSiteModel) and
// routes pages it has never seen to the nearest template cluster learned
// at training time.
//
// # Serving a fleet of sites
//
// Production serving is built from three layers. A ModelStore (DirStore on
// a filesystem) persists models by site and version with atomic publishes;
// a Registry maps each site to its currently serving model with lock-free
// lookups and hot-swap publishes; and a Service answers request-scoped
// extraction calls — per-request threshold and worker overrides instead of
// model mutation — over whatever the registry holds:
//
//	store, _ := ceres.NewDirStore("models")
//	version, _ := store.Publish("rottentomatoes.com", model)
//
//	reg, _ := ceres.OpenRegistry(ctx, store) // latest version of every site
//	svc := ceres.NewService(reg, ceres.WithMaxInflight(64))
//
//	strict := 0.75
//	resp, err := svc.Extract(ctx, ceres.ExtractRequest{
//	    Site:    "rottentomatoes.com",
//	    Pages:   unseenPages, // never part of training
//	    Options: ceres.RequestOptions{Threshold: &strict},
//	})
//	// resp.Triples, resp.Version, resp.Stats (pages, triples, latency)
//
// The cmd/ceres-serve daemon wraps exactly this stack in an HTTP API.
//
// # The serve path
//
// Serving does not build a DOM. On a SiteModel's first serve call its
// trained clusters compile into integer lookup tables; from then on
// Extract and its siblings run each page through a single forward pass
// over the HTML lexer's tokens — the same lexer the training-time DOM is
// built from — that maintains only the open-element stack, route the
// page by its template signature, and classify text fields from the
// pass's flat records — no node tree, no per-field re-walk. A field is
// scored by what its structural context is: contexts are interned to
// integers through the model's vocabulary, and a context a worker has met
// before — a template repeats them on every page — copies its remembered
// probabilities instead of re-deriving features (ServeStats counts
// fields and misses). A model that cannot compile fails every Extract
// call with the same error. The output is bit-identical to the
// paper-literal extractor over the same records (same triples,
// confidences, order and XPaths, enforced by differential tests).
// Service.ExtractScan is the raw-bytes entry point batch harvests use to
// feed pagestore records straight into that pass without a per-page
// string copy. DESIGN.md §5 specifies the path.
//
// # Batch harvests
//
// The offline counterpart is the batch subsystem: ceres/pagestore holds a
// site-partitioned crawl on disk, and ceres/batch runs a sharded,
// checkpointed train→publish→extract→fuse job over it through the same
// Registry/Service stack — killed runs resume exactly where they stopped,
// and a Fuser aggregates the output one triple at a time, without
// materializing the observations. cmd/ceres-batch drives the loop from the
// command line.
//
// # Model serialization
//
// A trained model persists in one format: WriteBinary emits
// ceres.sitemodel/3, a field-tagged binary file behind an 8-byte magic,
// and ReadSiteModel and DirStore read nothing else. The wire layout, the
// parallel registry boot and the page store's ordered read-ahead (one
// internal/par.Ordered call: records in index order, at most two inflated
// segments per loader) are specified in DESIGN.md §10.
//
// # Operations
//
// The serving stack is built to run as a fleet: N ceres-serve replicas
// sharing one ModelStore behind a load balancer. NewMetrics creates the
// process metrics registry (Prometheus text format, stdlib only) that
// Service (WithMetrics), Registry (Instrument), ModelWatcher and
// batch.Runner instrument themselves against — per-site request/page/
// triple counters, latency histograms, an inflight gauge, model
// versions and hot-swap counts, exposed by WritePrometheus (the
// daemon's GET /metrics). ModelWatcher polls the store on a jittered
// interval and hot-swaps each site's stored latest into the Registry,
// with per-site exponential backoff on corrupt artifacts, so a publish
// to any replica converges across the fleet with no restart.
// WithAdmissionWait bounds how long a request may wait for a
// WithMaxInflight slot before failing with ErrOverloaded (HTTP 429) —
// shed, not queued, so retries land on replicas with capacity.
// cmd/ceres-serve adds request IDs, structured access logs, /readyz
// drain semantics and per-site rate limits; cmd/ceres-fleet (make
// fleet) proves a rolling publish under load drops nothing. DESIGN.md
// §12 specifies the metric families and the drain/shed contracts.
//
// # Observability
//
// NewTracer builds the request tracer: 1-in-N sampled span trees over
// the serve path (admission → lookup → extract with per-stage
// parse/route/score children → fuse), the batch runner's shards and
// the training pipeline, retained in a ring and exported as JSONL (the
// daemon's GET /debug/traces). A sampled-out request costs nothing —
// the nil *Span no-op path is allocation-free, ceresvet-enforced, and
// BenchmarkServiceExtract/SequentialTraced shows allocs/op identical
// to the untraced path. Attach with WithTracer; propagate across
// layers with ContextWithSpan / SpanFromContext.
//
// Extraction-quality drift is tracked per site: every extraction's
// pre-threshold confidence (ceres_extraction_confidence), pages that
// extracted nothing (ceres_empty_pages_total), pages routed to no
// trained cluster (ceres_routing_miss_total) and, one level down, fields
// whose structural context was new to the worker
// (ceres_context_misses_total over ceres_fields_total). Service.SiteStats
// — the daemon's GET /v1/sites/{site}/stats — snapshots the first three
// into rates a continuous-harvest loop can threshold to decide a model
// has gone stale. Every response carries its serve time by stage in
// ServeStats.Stages, traced or not; batch runs sum it into their
// per-stage report (batch.Report.Stages). The
// daemon exposes Go runtime profiles under /debug/pprof only with
// -pprof. DESIGN.md §13 specifies the span model, the sampling
// contract and the drift-signal definitions.
//
// # Development
//
// `make lint` is the gate every change must pass: go vet plus
// cmd/ceresvet, the repo's own static-analysis suite enforcing the
// invariants this package's guarantees rest on — atomic file
// publication, threaded cancellation, deterministic map iteration, lock
// safety and the //ceres:allocfree hot-path contract (DESIGN.md §9).
//
// See examples/ for runnable end-to-end programs, DESIGN.md for the system
// inventory, the serving-stack wire protocol and the
// batch-harvest architecture (§8); `go run ./cmd/ceres-bench` reproduces
// every table and figure in the paper.
package ceres
