package core

import (
	"fmt"

	"ceres/internal/dom"
	"ceres/internal/mlr"
)

// This file is a trained model's serving form (DESIGN.md §5): its
// featurizer — the tables training built, which serving reads as they
// are — beside the classifier behind the allocation-free mlr.Scorer
// contract, and the per-worker scratch the serve engine (streamserve.go)
// writes into.

// CompiledModel bundles a frozen featurizer with its classifier behind
// the allocation-free mlr.Scorer contract. Immutable and safe for
// concurrent use; each worker passes its own ServeScratch.
type CompiledModel struct {
	classes   *Classes
	nameClass int
	fz        *Featurizer
	scorer    mlr.Scorer
}

// compileModel produces the serving form of a trained model.
func compileModel(m *Model) (*CompiledModel, error) {
	cm := &CompiledModel{
		classes:   m.Classes,
		nameClass: m.Classes.Index(NameClass),
		fz:        m.Featurizer,
	}
	switch {
	case m.NB != nil:
		cm.scorer = m.NB
	case m.LR != nil:
		// Feature-major weights: one pass over the sparse vector scores
		// all classes, bit-identical to Model.ScoresInto.
		cm.scorer = m.LR.Transpose()
	default:
		return nil, fmt.Errorf("core: model has no classifier to compile")
	}
	return cm, nil
}

// ServeScratch is the per-worker scratch space a compiled extraction
// writes into. Each serve worker owns exactly one; a ServeScratch must
// never be shared between concurrent goroutines.
type ServeScratch struct {
	vb    mlr.VectorBuilder
	proba []float64 // the page's fields×classes probability matrix

	stream   *dom.StreamScratch
	htmlBuf  []byte   // page bytes when the source arrives as a string
	sig      [][]byte // sorted routing-signature views
	xpathBuf []byte   // lazily rendered XPath scratch

	// What the current page's elements are to the current model
	// (streamserve.go), indexed by element record and rebuilt per page.
	elemIDs []int32 // kindWidth vocabulary IDs per element: tag, then structuralAttrs
	kind    []int32 // elemIDs interned to one number; -1 when the cache is full
	subText []int32 // lexicon ID of the subtree text; -1 until first asked for
	ownText []int32 // lexicon ID of the direct text; -1 until first asked for
	ctxMemo []int32 // lvl*elements+element → context ID; 0 until first asked for
	ctxKey  []int32 // the context tuple under construction

	// One context cache per compiled model, least recently used first out
	// — the pooled scratch serves many sites over its lifetime, and a
	// harvest interleaves their shards. cache is the current page's.
	caches []*contextCache
	cache  *contextCache
	tick   uint64
	counts contextCounts
	// stages is where this scratch's pages spent their time since it was
	// checked out; summed into ServeStats beside counts.
	stages StageTimes
	// results are the pages this scratch served in the current parallel
	// serve call (extractParallel).
	results []pageResult
}

// contextCounts is what the context caches of one scratch did since the
// scratch was checked out: plain ints, summed into ServeStats when the
// serve call ends.
type contextCounts struct {
	fields    int // fields scored
	misses    int // of those, scored by the feature walk: the context was new
	uncached  int // of the misses, not remembered: the model's cache is full
	evictions int // caches dropped to make room for another model's
}

// NewServeScratch allocates an empty scratch; its buffers grow to the
// largest page the worker sees and are then reused.
func NewServeScratch() *ServeScratch {
	return &ServeScratch{}
}
