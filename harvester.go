package ceres

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// SiteInput is one site of a multi-site harvest.
type SiteInput struct {
	// Site identifies the site (e.g. its domain); it becomes the source
	// name fusion credits observations to.
	Site string
	// Pages are the site's detail pages.
	Pages []PageSource
	// Pipeline optionally overrides the harvester's shared pipeline for
	// this site — e.g. a site-specific seed KB or threshold. Nil uses the
	// shared pipeline.
	Pipeline *Pipeline
}

// DuplicateSiteError reports a Harvest input naming the same site more
// than once — the two entries would otherwise race to publish the site's
// model and silently overwrite each other's results.
type DuplicateSiteError struct {
	Site string
}

func (e *DuplicateSiteError) Error() string {
	return fmt.Sprintf("ceres: duplicate site %q in harvest input", e.Site)
}

// HarvesterOption configures a Harvester.
type HarvesterOption func(*Harvester)

// WithSiteConcurrency bounds how many sites are in flight at once
// (default 4): that many fit and serve concurrently, while the page-holding
// half of training is one site at a time per Pipeline (see Pipeline.Train),
// so the bound on memory is one site's parsed pages, not n. Per-site page
// parallelism is still governed by the pipeline's WithWorkers.
func WithSiteConcurrency(n int) HarvesterOption {
	return func(h *Harvester) {
		if n > 0 {
			h.concurrency = n
		}
	}
}

// WithHarvesterRegistry makes the harvester publish trained models into an
// existing registry — e.g. the one a Service or serving daemon reads from
// — instead of a private one, so every harvested site goes straight into
// serving.
func WithHarvesterRegistry(reg *Registry) HarvesterOption {
	return func(h *Harvester) {
		if reg != nil {
			h.reg = reg
		}
	}
}

// Harvester trains many sites concurrently against one seed KB and
// publishes each trained model into a Registry — the paper's long-tail
// setting (§5.5), where 33 sites are harvested and the results fused. It
// is the training front-end of the serving stack: models land in the
// registry (Registry()) where a Service serves them, while the harvester
// accumulates one training Result per site and feeds them directly into
// Fuse. All methods are safe for concurrent use.
type Harvester struct {
	p           *Pipeline
	concurrency int
	reg         *Registry
	svc         *Service

	mu      sync.Mutex
	results map[string]*Result
	errs    map[string]error
}

// NewHarvester builds a harvester over a configured pipeline.
func NewHarvester(p *Pipeline, opts ...HarvesterOption) *Harvester {
	h := &Harvester{
		p:           p,
		concurrency: 4,
		results:     map[string]*Result{},
		errs:        map[string]error{},
	}
	for _, o := range opts {
		o(h)
	}
	if h.reg == nil {
		h.reg = NewRegistry()
	}
	h.svc = NewService(h.reg)
	return h
}

// Registry returns the registry the harvester publishes trained models
// into.
func (h *Harvester) Registry() *Registry { return h.reg }

// Service returns a request-scoped extraction service over the
// harvester's registry.
func (h *Harvester) Service() *Service { return h.svc }

// Train trains one site with the shared pipeline and publishes its model
// into the registry for serving.
func (h *Harvester) Train(ctx context.Context, site string, pages []PageSource) (*SiteModel, error) {
	return h.trainWith(ctx, h.p, site, pages)
}

func (h *Harvester) trainWith(ctx context.Context, p *Pipeline, site string, pages []PageSource) (*SiteModel, error) {
	m, err := p.Train(ctx, pages)
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		// Cancellation means the site never ran, not that it failed;
		// Errors() reports only genuine per-site failures.
		if ctx.Err() == nil {
			h.errs[site] = err
		}
		return nil, err
	}
	delete(h.errs, site)
	h.reg.PublishNext(site, m)
	return m, nil
}

// AddModel registers an already-trained model (e.g. one loaded with
// ReadSiteModel) so Harvest and Extract can serve the site without
// retraining. It publishes into the registry under the next version.
func (h *Harvester) AddModel(site string, m *SiteModel) {
	h.reg.PublishNext(site, m)
}

// Model returns the registered model of a site.
func (h *Harvester) Model(site string) (*SiteModel, bool) {
	e, ok := h.reg.Lookup(site)
	if !ok {
		return nil, false
	}
	return e.Model, true
}

// Extract serves pages of a previously trained site and records the
// result for fusion. It returns ErrNotTrained when the site has no
// registered model. The registry is looked up exactly once, so even while
// a concurrent publish hot-swaps the site, the whole Result — triples and
// training statistics alike — comes from one model version.
func (h *Harvester) Extract(ctx context.Context, site string, pages []PageSource) (*Result, error) {
	e, ok := h.reg.Lookup(site)
	if !ok {
		return nil, ErrNotTrained
	}
	res, err := e.Model.Extract(ctx, pages)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.results[site] = res
	h.mu.Unlock()
	return res, nil
}

// Harvest processes sites concurrently: each site is trained (unless a
// model is already registered) and then served over its own pages, the
// multi-site harvest of the paper's CommonCrawl experiment. Sites whose
// seed-KB overlap is too thin to train (ErrNoAnnotations) are skipped and
// recorded in Errors() — a long-tail harvest expects some of those — as
// are sites that fail to serve. Inputs naming the same site twice are
// rejected up front with a DuplicateSiteError, before any site runs.
// Harvest stops early only when ctx is cancelled, returning ctx.Err();
// otherwise it returns the per-site results, which are also retained for
// Fuse.
func (h *Harvester) Harvest(ctx context.Context, sites []SiteInput) (map[string]*Result, error) {
	seen := make(map[string]bool, len(sites))
	for _, in := range sites {
		if seen[in.Site] {
			return nil, &DuplicateSiteError{Site: in.Site}
		}
		seen[in.Site] = true
	}
	workers := h.concurrency
	if workers > len(sites) {
		workers = len(sites)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan SiteInput)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for in := range next {
				h.harvestOne(ctx, in)
			}
		}()
	}
feed:
	for _, in := range sites {
		select {
		case next <- in:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := map[string]*Result{}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, in := range sites {
		if res, ok := h.results[in.Site]; ok {
			out[in.Site] = res
		}
	}
	return out, nil
}

func (h *Harvester) harvestOne(ctx context.Context, in SiteInput) {
	if _, ok := h.Model(in.Site); !ok {
		p := h.p
		if in.Pipeline != nil {
			p = in.Pipeline
		}
		if _, err := h.trainWith(ctx, p, in.Site, in.Pages); err != nil {
			return // recorded by trainWith
		}
	}
	if _, err := h.Extract(ctx, in.Site, in.Pages); err != nil && ctx.Err() == nil {
		h.mu.Lock()
		h.errs[in.Site] = err
		h.mu.Unlock()
	}
}

// Results returns a copy of the per-site results accumulated so far.
func (h *Harvester) Results() map[string]*Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]*Result, len(h.results))
	for k, v := range h.results {
		out[k] = v
	}
	return out
}

// Errors returns a copy of the per-site failures (e.g. ErrNoAnnotations
// for sites the seed KB could not align with).
func (h *Harvester) Errors() map[string]error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]error, len(h.errs))
	for k, v := range h.errs {
		out[k] = v
	}
	return out
}

// Sites lists sites with a result, sorted.
func (h *Harvester) Sites() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.results))
	for s := range h.results {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Fuse aggregates every accumulated result into fused facts — the
// knowledge-fusion step the paper applies to its multi-site harvest.
func (h *Harvester) Fuse(opts FusionOptions) []FusedFact {
	return Fuse(h.Results(), opts)
}
