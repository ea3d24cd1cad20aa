// Package batch runs crawl-scale harvests offline: point a Job at a
// stored multi-site page corpus and it trains, publishes, extracts and
// fuses as one bounded-memory, resumable run — the offline counterpart to
// the serving daemon, and the repository's analogue of the paper's
// CommonCrawl experiment (§5.5: 33 movie sites, 1.25M triples).
//
// The moving parts:
//
//   - A PageProvider supplies site-partitioned pages as bytes
//     (pagestore.Store for an on-disk crawl, MemProvider for in-memory
//     page sets).
//   - PlanJob shards every site's pages into fixed-size ranges.
//   - A Runner executes shards on a worker pool, each one a
//     Service.ExtractScan over the provider's bytes, whatever the
//     provider; sites with no published model are trained
//     first (once each; several at a time when there are workers for it,
//     one of them holding parsed pages) and published — through the
//     configured ceres.ModelStore when one is set, so a crash never loses
//     a trained model.
//   - Each shard's triples are encoded into a TripleSink writer and handed
//     to the commit stage — one goroutine that makes shard output durable
//     in batches and then records each batch in an atomically written
//     checkpoint manifest, so a killed run resumes exactly where it
//     stopped with no duplicate output, and no worker waits for a disk.
//   - After the last shard, a streaming fusion stage replays the sink in
//     plan order through a ceres.Fuser — observations are never
//     materialized as one list.
//
// Memory stays bounded throughout: an extracting worker holds one shard of
// pages and its triples at a time, never a whole site, at most two encoded
// shards per worker wait for the commit stage, and of the sites in
// training one at a time holds its parsed TrainPages pages.
package batch

import (
	"context"
	"fmt"
	"sort"

	"ceres"
)

// PageProvider supplies the site-partitioned pages of a harvest, as
// bytes: the runner extracts every shard straight from what PagesBytes
// delivers (Service.ExtractScan) and copies a site's training pages into
// strings itself. pagestore.Store implements it for on-disk crawls.
// Implementations must be safe for concurrent readers.
type PageProvider interface {
	// Sites lists the available sites, sorted.
	Sites() ([]string, error)
	// PageCount returns one site's total page count; it errors for a site
	// the provider does not hold.
	PageCount(site string) (int, error)
	// PagesBytes streams records [start, start+n) of a site in stable
	// order through fn (n < 0 streams to the end). The id and html slices
	// are valid only during the fn call — the provider may reuse their
	// backing buffers afterwards. A non-nil error from fn stops the scan
	// and is returned; cancelling ctx may stop it with ctx.Err()
	// (providers that read ahead concurrently, like pagestore.Store, use
	// it to abandon in-flight work). The delivery order must be identical
	// on every call — shard planning and checkpoint resume depend on it.
	PagesBytes(ctx context.Context, site string, start, n int, fn func(id, html []byte) error) error
}

// MemProvider is an in-memory PageProvider, for harvests over page sets
// already in memory (tests, small corpora, CLI runs over a directory of
// files). Add sites before handing it to a Runner; it must not be mutated
// during a run.
type MemProvider struct {
	sites map[string][]ceres.PageSource
}

// NewMemProvider builds an empty in-memory provider.
func NewMemProvider() *MemProvider {
	return &MemProvider{sites: map[string][]ceres.PageSource{}}
}

// Add registers a site's pages, replacing any previous set.
func (m *MemProvider) Add(site string, pages []ceres.PageSource) {
	m.sites[site] = pages
}

// Sites implements PageProvider.
func (m *MemProvider) Sites() ([]string, error) {
	out := make([]string, 0, len(m.sites))
	for s := range m.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// PageCount implements PageProvider.
func (m *MemProvider) PageCount(site string) (int, error) {
	pages, ok := m.sites[site]
	if !ok {
		return 0, fmt.Errorf("batch: unknown site %q", site)
	}
	return len(pages), nil
}

// PagesBytes implements PageProvider. Each page is copied into a buffer
// this call owns, so what fn receives is never shared with another call;
// the pages are already in memory and ctx is never consulted.
func (m *MemProvider) PagesBytes(_ context.Context, site string, start, n int, fn func(id, html []byte) error) error {
	pages, ok := m.sites[site]
	if !ok {
		return fmt.Errorf("batch: unknown site %q", site)
	}
	if start < 0 {
		return fmt.Errorf("batch: negative start %d", start)
	}
	if start > len(pages) {
		start = len(pages)
	}
	end := len(pages)
	if n >= 0 && start+n < end {
		end = start + n
	}
	var buf []byte
	for _, p := range pages[start:end] {
		buf = append(append(buf[:0], p.ID...), p.HTML...)
		k := len(p.ID)
		if err := fn(buf[:k:k], buf[k:]); err != nil {
			return err
		}
	}
	return nil
}

// readPages copies the leading n pages of a site into the strings
// Pipeline.Train takes.
func readPages(ctx context.Context, p PageProvider, site string, n int) ([]ceres.PageSource, error) {
	out := make([]ceres.PageSource, 0, n)
	err := p.PagesBytes(ctx, site, 0, n, func(id, html []byte) error {
		out = append(out, ceres.PageSource{ID: string(id), HTML: string(html)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
