package core

import (
	"context"

	"ceres/internal/kb"
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

// IdentifyTopics runs Algorithm 1 over a cluster of pages through the
// indexed annotation path (kb.Index interning, sorted-slice page sets),
// with context cancellation and an explicit worker count (0 means the
// pipeline default). Page-index construction and per-page candidate
// scoring run on the worker pool with per-worker scratch. Output is
// identical to the string-keyed reference in this package's test files;
// annotate_diff_test.go asserts it over every demo corpus.
func IdentifyTopics(ctx context.Context, pages []*Page, ix *kb.Index, opts TopicOptions, workers int) ([]TopicResult, error) {
	topics, _, err := identifyTopicsIndexed(ctx, pages, ix, opts, workers)
	return topics, err
}
