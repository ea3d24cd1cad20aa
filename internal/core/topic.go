package core

import (
	"context"

	"ceres/internal/kb"
	"ceres/internal/strmatch"
)

// TopicOptions tunes Algorithm 1 (paper §3.1). Defaults follow the paper's
// examples where it gives them.
type TopicOptions struct {
	// FrequentObjectFrac: object keys appearing in at least this fraction
	// of KB triples are never topic candidates (§3.1.1: "strings appearing
	// in a large percentage (e.g., 0.01%) of triples ... we do not
	// consider them as potential topics"). They still count as pageSet
	// members for Jaccard scoring.
	FrequentObjectFrac float64
	// FrequentObjectMinCount is an absolute floor on the frequent-key
	// count (default 30): with seed KBs orders of magnitude smaller than
	// the paper's 85M triples, a purely relative threshold would mark
	// every well-connected entity frequent.
	FrequentObjectMinCount int
	// MaxTopicPages: a candidate identified as the topic of at least this
	// many pages is discarded (§3.1.2 step 1, "e.g., >= 5 pages").
	MaxTopicPages int
}

func (o TopicOptions) withDefaults() TopicOptions {
	if o.FrequentObjectFrac == 0 {
		o.FrequentObjectFrac = 0.0001 // the paper's 0.01%
	}
	if o.FrequentObjectMinCount == 0 {
		o.FrequentObjectMinCount = 30
	}
	if o.MaxTopicPages == 0 {
		o.MaxTopicPages = 5
	}
	return o
}

// frequentFrac resolves the effective frequent-object fraction, applying
// the absolute MinCount floor. Both annotation paths share it so the
// float arithmetic is bit-identical.
func (o TopicOptions) frequentFrac(numTriples int) float64 {
	frac := o.FrequentObjectFrac
	if numTriples > 0 {
		if floor := float64(o.FrequentObjectMinCount) / float64(numTriples); floor > frac {
			frac = floor
		}
	}
	return frac
}

// pageIndex holds the per-page precomputation topic identification and
// relation annotation share: which KB items each field may denote.
type pageIndex struct {
	page *Page
	// items maps field index -> item keys ("e:<id>" / "lit:<norm>").
	items [][]string
	// pageSet is the union of items, the Algorithm 1 pageSet.
	pageSet map[string]bool
	// mentionsOf maps an item key to the fields mentioning it.
	mentionsOf map[string][]int
}

func buildPageIndex(p *Page, K *kb.KB) *pageIndex {
	pi := &pageIndex{
		page:       p,
		items:      make([][]string, len(p.Fields)),
		pageSet:    map[string]bool{},
		mentionsOf: map[string][]int{},
	}
	for i, f := range p.Fields {
		if strmatch.IsLowInfo(f.Text) {
			continue
		}
		items := K.MatchItems(f.Text)
		for _, it := range items {
			pi.pageSet[it] = true
			pi.mentionsOf[it] = append(pi.mentionsOf[it], i)
		}
		pi.items[i] = items
	}
	return pi
}

// TopicResult reports Algorithm 1's outcome for one page.
type TopicResult struct {
	// EntityID is the identified topic entity ("" if none).
	EntityID string
	// FieldIdx is the index of the field holding the topic name (-1 if
	// none).
	FieldIdx int
	// Score is the Jaccard score of the winning entity.
	Score float64
}

// jaccardScore computes J(pageSet, entitySet) of Equation 1.
func jaccardScore(pageSet map[string]bool, entitySet map[string]bool) float64 {
	if len(pageSet) == 0 || len(entitySet) == 0 {
		return 0
	}
	small, large := pageSet, entitySet
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	union := len(pageSet) + len(entitySet) - inter
	return float64(inter) / float64(union)
}

// IdentifyTopics runs Algorithm 1 over a cluster of pages through the
// indexed annotation path (kb.Index interning, sorted-slice page sets),
// with context cancellation and an explicit worker count (0 means the
// pipeline default). Page-index construction and per-page candidate
// scoring run on the worker pool with per-worker scratch. Output is
// identical to IdentifyTopicsLegacy; the differential tests assert it
// over every demo corpus.
func IdentifyTopics(ctx context.Context, pages []*Page, K *kb.KB, opts TopicOptions, workers int) ([]TopicResult, error) {
	topics, _, err := identifyTopicsIndexed(ctx, pages, K.BuildIndex(), opts, workers)
	return topics, err
}

// IdentifyTopicsLegacy is the original string-keyed Algorithm 1: per-call
// normalization, map page-sets, lazily scored candidates. It is the
// reference implementation the indexed path is differentially tested
// against; the pipeline never calls it.
func IdentifyTopicsLegacy(pages []*Page, K *kb.KB, opts TopicOptions) []TopicResult {
	opts = opts.withDefaults()
	frequent := K.FrequentObjectKeys(opts.frequentFrac(K.NumTriples()))

	idx := make([]*pageIndex, len(pages))
	for i, p := range pages {
		idx[i] = buildPageIndex(p, K)
	}

	// Per-page candidate scores, computed lazily per entity.
	scores := make([]map[string]float64, len(pages))
	entitySets := map[string]map[string]bool{}
	entitySet := func(id string) map[string]bool {
		s, ok := entitySets[id]
		if !ok {
			s = K.ObjectKeys(id)
			entitySets[id] = s
		}
		return s
	}
	scoreEntity := func(pi int, entityID string) float64 {
		if s, ok := scores[pi][entityID]; ok {
			return s
		}
		s := jaccardScore(idx[pi].pageSet, entitySet(entityID))
		if scores[pi] == nil {
			scores[pi] = map[string]float64{}
		}
		scores[pi][entityID] = s
		return s
	}

	// Step 1: local best candidate per page.
	localBest := make([]string, len(pages))
	for pi := range pages {
		best, bestScore := "", 0.0
		for _, item := range sortedKeys(idx[pi].pageSet) {
			if len(item) < 2 || item[:2] != "e:" {
				continue // literals cannot be subjects
			}
			if frequent[item] {
				continue // promiscuous strings are not topic candidates
			}
			id := item[2:]
			s := scoreEntity(pi, id)
			if s > bestScore || (s == bestScore && s > 0 && (best == "" || id < best)) {
				best, bestScore = id, s
			}
		}
		localBest[pi] = best
	}

	// Step 2 (uniqueness): discard candidates claimed by too many pages.
	claims := map[string]int{}
	for _, id := range localBest {
		if id != "" {
			claims[id]++
		}
	}
	discarded := map[string]bool{}
	for id, n := range claims {
		if n >= opts.MaxTopicPages {
			discarded[id] = true
		}
	}

	// Step 3 (consistency): vote for the dominant topic XPath using the
	// surviving candidates' mention locations.
	pathCounts := map[string]int{}
	for pi, id := range localBest {
		if id == "" || discarded[id] {
			continue
		}
		for _, fi := range idx[pi].mentionsOf["e:"+id] {
			pathCounts[pages[pi].Fields[fi].PathString]++
		}
	}
	rankedPaths := rankedKeysByCount(pathCounts)

	// Step 4: per page, take the highest-ranked path that exists on the
	// page and pick the best-scoring entity mentioned in that field.
	out := make([]TopicResult, len(pages))
	for pi, p := range pages {
		out[pi] = TopicResult{FieldIdx: -1}
		fieldByPath := map[string]int{}
		for fi, f := range p.Fields {
			fieldByPath[f.PathString] = fi
		}
		for _, path := range rankedPaths {
			fi, ok := fieldByPath[path]
			if !ok {
				continue
			}
			best, bestScore := "", 0.0
			for _, item := range idx[pi].items[fi] {
				if len(item) < 2 || item[:2] != "e:" || frequent[item] {
					continue
				}
				id := item[2:]
				if discarded[id] {
					continue
				}
				s := scoreEntity(pi, id)
				if s > bestScore || (s == bestScore && s > 0 && (best == "" || id < best)) {
					best, bestScore = id, s
				}
			}
			if best != "" {
				out[pi] = TopicResult{EntityID: best, FieldIdx: fi, Score: bestScore}
			}
			break // only the highest-ranked extant path is consulted
		}
	}
	return out
}
