package ceres

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ceres/internal/par"
)

// RegisteredModel pairs a site's serving model with the version it was
// published under.
type RegisteredModel struct {
	Site    string
	Version int
	Model   *SiteModel
}

// Registry is the serving fleet's site → model map. Reads (Lookup, and
// through it every Service.Extract) are lock-free: the site table lives
// behind an atomic pointer to an immutable map, so a request never blocks
// on a publish. Writers (Publish, Drop) copy-on-write the table under a
// mutex, and a hot-swap becomes visible to in-flight traffic at the next
// Lookup — requests already holding a model keep serving the version they
// looked up. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[map[string]RegisteredModel]
	// swaps counts Publish/PublishNext hot-swaps since construction — the
	// fleet-convergence signal exposed as ceres_registry_swaps_total
	// (obs.go). OpenRegistry's boot snapshot is not a swap.
	swaps atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	empty := map[string]RegisteredModel{}
	r.snap.Store(&empty)
	return r
}

// OpenRegistry loads the latest stored version of every site in the store
// into a new registry — how a serving process boots its fleet. Model
// loads run on a GOMAXPROCS-wide worker pool (deserialization dominates a
// cold boot, and models are independent), but the outcome is
// deterministic: on failure the error reported is always the
// first-failing site in List (site-sorted) order, regardless of which
// worker hit it first. Cancelling ctx abandons the boot with ctx.Err().
func OpenRegistry(ctx context.Context, store ModelStore) (*Registry, error) {
	r := NewRegistry()
	ents, err := store.List()
	if err != nil {
		return nil, err
	}
	type job struct {
		site    string
		version int
	}
	jobs := make([]job, 0, len(ents))
	for _, e := range ents {
		if len(e.Versions) == 0 {
			continue
		}
		// List sorts versions ascending; the last is the latest.
		jobs = append(jobs, job{e.Site, e.Versions[len(e.Versions)-1]})
	}
	models := make([]*SiteModel, len(jobs))
	errs := make([]error, len(jobs))
	if err := par.For(ctx, len(jobs), runtime.GOMAXPROCS(0), func(_, i int) {
		models[i], errs[i] = store.Open(jobs[i].site, jobs[i].version)
	}); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ceres: loading registry: site %q: %w", jobs[i].site, err)
		}
	}
	// Install the whole fleet as one snapshot: publishing per site would
	// copy-on-write the table once per model (quadratic over a large
	// store), and nothing can be serving mid-boot anyway.
	table := make(map[string]RegisteredModel, len(jobs))
	for i, j := range jobs {
		table[j.site] = RegisteredModel{Site: j.site, Version: j.version, Model: models[i]}
	}
	r.snap.Store(&table)
	return r, nil
}

// Lookup returns the model currently serving a site. It is lock-free and
// safe to call from any number of goroutines concurrently with Publish.
func (r *Registry) Lookup(site string) (RegisteredModel, bool) {
	e, ok := (*r.snap.Load())[site]
	return e, ok
}

// Publish hot-swaps the model serving a site. The version is the caller's
// label for the artifact (typically assigned by a ModelStore); Publish
// does not enforce monotonicity, so an explicit re-publish of an older
// version is a rollback. In-flight requests finish on the model they
// already looked up; the next request serves the new one.
func (r *Registry) Publish(site string, version int, m *SiteModel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.clone()
	next[site] = RegisteredModel{Site: site, Version: version, Model: m}
	r.snap.Store(&next)
	r.swaps.Add(1)
}

// PublishNext publishes m under the site's current version + 1 (1 for a
// site the registry has not seen) and returns the assigned version. Use it
// when no ModelStore is assigning durable version numbers.
func (r *Registry) PublishNext(site string, m *SiteModel) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.clone()
	version := next[site].Version + 1
	next[site] = RegisteredModel{Site: site, Version: version, Model: m}
	r.snap.Store(&next)
	r.swaps.Add(1)
	return version
}

// Len returns the number of registered sites.
func (r *Registry) Len() int { return len(*r.snap.Load()) }

// Swaps returns the cumulative number of model publishes (hot swaps)
// applied to the registry since it was built.
func (r *Registry) Swaps() int64 { return r.swaps.Load() }

// Snapshot lists the registered models, sorted by site. The slice is the
// caller's; the registry never mutates a returned snapshot.
func (r *Registry) Snapshot() []RegisteredModel {
	cur := *r.snap.Load()
	out := make([]RegisteredModel, 0, len(cur))
	for _, e := range cur {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// clone copies the current table for a writer; callers hold r.mu.
func (r *Registry) clone() map[string]RegisteredModel {
	cur := *r.snap.Load()
	next := make(map[string]RegisteredModel, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	return next
}
