package core

import (
	"fmt"
	"strconv"
	"strings"

	"ceres/internal/dom"
	"ceres/internal/mlr"
)

// This file compiles a trained model into its serving form (DESIGN.md §5).
// Training builds features by concatenating string names and hashing them
// through the feature dictionary; that is fine once per site, but serving
// applies the model to every text field of every page, so the string
// building and map probes would dominate extraction cost. Compile() runs
// once per model and inverts the dictionary into per-(level, offset,
// attribute) lookup tables keyed directly by tag / attribute value /
// sibling text, so the stream pass (streamserve.go) emits integer feature
// IDs with no string assembly and no allocation. Its output is identical
// to Featurizer.Features + Model.Proba — the differential tests hold it to
// the paper-literal ExtractPage over the whole DemoCorpus.

// CompiledFeaturizer is the frozen, serve-only form of a Featurizer. It
// is immutable after Compile and safe for concurrent use; the per-call
// scratch lives in the caller's VectorBuilder.
type CompiledFeaturizer struct {
	opts FeatureOptions
	// structural[lvl][off+SiblingWindow] resolves the 4-tuple features of
	// one context position.
	structural [][]structTable
	// text[lvl][off] resolves frequent-string features: off 0 is the
	// ancestor's own text, off k>0 the k-th preceding element sibling.
	text [][]map[string]int32
	// maxText is the longest key across the text tables. Sibling subtree
	// text longer than this can never match, so the stream pass captures
	// at most maxText bytes of it.
	maxText int
}

// structTable resolves the structural features of one (level, offset)
// context position. Nil maps (and a nil attr slice) are valid and simply
// never match.
type structTable struct {
	tag map[string]int32
	// tagBySym mirrors tag, indexed by the process-wide dom.TagSym of the
	// key: tagBySym[sym] is the feature ID, or -1 for no feature. Built by
	// Compile so the per-visit tag lookup is an array index instead of a
	// string hash; the map stays as the fallback for tags the stream could
	// not symbolize (exhausted symbol space).
	tagBySym []int32
	// attr is parallel to structuralAttrs: attr[i] maps attribute values
	// of structuralAttrs[i] to feature IDs. Allocated lazily to
	// len(structuralAttrs) when the first attribute feature is indexed.
	attr []map[string]int32
}

// Compile inverts the frozen feature dictionary into integer lookup
// tables. The featurizer must be frozen: a growing dictionary cannot be
// compiled because serving would miss features training would still add.
func (fz *Featurizer) Compile() (*CompiledFeaturizer, error) {
	if !fz.dict.Frozen() {
		return nil, fmt.Errorf("core: cannot compile an unfrozen featurizer")
	}
	o := fz.opts
	cf := &CompiledFeaturizer{opts: o}
	cf.structural = make([][]structTable, o.MaxAncestors+1)
	for i := range cf.structural {
		cf.structural[i] = make([]structTable, 2*o.SiblingWindow+1)
	}
	cf.text = make([][]map[string]int32, o.TextAncestors+1)
	for i := range cf.text {
		cf.text[i] = make([]map[string]int32, o.SiblingWindow+1)
	}
	for id := 0; id < fz.dict.Len(); id++ {
		cf.index(fz.dict.Name(id), int32(id))
	}
	for _, tables := range cf.text {
		for _, tbl := range tables {
			for k := range tbl {
				if len(k) > cf.maxText {
					cf.maxText = len(k)
				}
			}
		}
	}
	for i := range cf.structural {
		for j := range cf.structural[i] {
			cf.structural[i][j].buildSymIndex()
		}
	}
	return cf, nil
}

// buildSymIndex inverts the tag map into the symbol-indexed array the
// serve path reads. Keys intern through dom.TagSym — the same symbols
// the stream pass assigns — so a key that cannot intern (exhausted symbol
// space) just stays map-only.
func (t *structTable) buildSymIndex() {
	maxSym := int32(0)
	for k := range t.tag {
		if s := dom.TagSym(k); s > maxSym {
			maxSym = s
		}
	}
	if maxSym == 0 {
		return
	}
	t.tagBySym = make([]int32, maxSym+1)
	for i := range t.tagBySym {
		t.tagBySym[i] = -1
	}
	for k, id := range t.tag {
		if s := dom.TagSym(k); s > 0 {
			t.tagBySym[s] = id
		}
	}
}

// index parses one dictionary feature name into the tables. Names that do
// not match the grammar the trainer emits ("s|lvl|off|attr|value",
// "t|lvl|off|text") or whose positions fall outside the configured
// windows are skipped: Featurizer.Features can never look such names up, so
// ignoring them preserves output equivalence.
func (cf *CompiledFeaturizer) index(name string, id int32) {
	rest, structural := strings.CutPrefix(name, "s|")
	if !structural {
		var ok bool
		rest, ok = strings.CutPrefix(name, "t|")
		if !ok {
			return
		}
	}
	lvl, rest, ok := cutInt(rest)
	if !ok || lvl < 0 {
		return
	}
	off, rest, ok := cutInt(rest)
	if !ok || rest == "" {
		return
	}
	if structural {
		if lvl >= len(cf.structural) || off < -cf.opts.SiblingWindow || off > cf.opts.SiblingWindow {
			return
		}
		t := &cf.structural[lvl][off+cf.opts.SiblingWindow]
		if v, ok := strings.CutPrefix(rest, "tag|"); ok {
			if t.tag == nil {
				t.tag = make(map[string]int32)
			}
			t.tag[v] = id
			return
		}
		for i, attr := range structuralAttrs {
			if v, ok := strings.CutPrefix(rest, attr+"|"); ok {
				if t.attr == nil {
					t.attr = make([]map[string]int32, len(structuralAttrs))
				}
				if t.attr[i] == nil {
					t.attr[i] = make(map[string]int32)
				}
				t.attr[i][v] = id
				return
			}
		}
		return
	}
	// Text feature: off is 0 (ancestor own text) or negative (preceding
	// element sibling); the table stores the magnitude.
	if lvl >= len(cf.text) || off > 0 || -off > cf.opts.SiblingWindow {
		return
	}
	if cf.text[lvl][-off] == nil {
		cf.text[lvl][-off] = make(map[string]int32)
	}
	cf.text[lvl][-off][rest] = id
}

// cutInt splits "123|rest" into (123, "rest").
func cutInt(s string) (int, string, bool) {
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return 0, "", false
	}
	v, err := strconv.Atoi(s[:i])
	if err != nil {
		return 0, "", false
	}
	return v, s[i+1:], true
}

// CompiledModel bundles a compiled featurizer with its classifier behind
// the allocation-free mlr.Scorer contract. Immutable and safe for
// concurrent use; each worker passes its own ServeScratch.
type CompiledModel struct {
	classes   *Classes
	nameClass int
	fz        *CompiledFeaturizer
	scorer    mlr.Scorer
}

// Compile produces the frozen serving form of a trained model.
func (m *Model) Compile() (*CompiledModel, error) {
	cf, err := m.Featurizer.Compile()
	if err != nil {
		return nil, err
	}
	cm := &CompiledModel{
		classes:   m.Classes,
		nameClass: m.Classes.Index(NameClass),
		fz:        cf,
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
// writes into: the reusable vector builder and a flat fields×classes
// probability matrix. Each serve worker owns exactly one; a ServeScratch
// must never be shared between concurrent goroutines.
type ServeScratch struct {
	vb    mlr.VectorBuilder
	proba []float64

	stream   *dom.StreamScratch
	htmlBuf  []byte   // page bytes when the source arrives as a string
	sig      [][]byte // sorted routing-signature views
	memoRow  []int32  // per-element first-scored-field memo
	xpathBuf []byte   // lazily rendered XPath scratch

	// Per-page memo of the ancestor half of the feature walk: the
	// features a walk emits for an element at ancestor level L (and
	// everything above it) depend only on that (element, L) pair, so the
	// walk records each pair's ID run once and replays it — cells of one
	// table row share their whole ancestor chain, rows share everything
	// from the table up. Validity is epoch-marked, so a new page costs an
	// increment, not a clear.
	upEpoch    []int32           // (lvl-1)*upStride+node → epoch the span was recorded in
	upOff      []int32           // parallel span starts into upperIDs
	upEnd      []int32           // parallel span ends
	upStride   int               // element count of the page the memo is keyed for
	upEpochCur int32             // current page's epoch
	upVB       mlr.VectorBuilder // transient per-level emission buffer
	upperIDs   []int32           // recorded upper-walk feature IDs, page-local arena

	// Cross-page probability caches (streamserve.go): template pages
	// repeat structural contexts, and an identical raw feature sequence
	// deterministically yields identical class probabilities, so repeat
	// contexts skip sort/coalesce and the scorer entirely. One cache per
	// compiled model — the pooled scratch serves many sites over its
	// lifetime, and a harvest interleaves their shards.
	cacheKey []byte // encoded feature sequence of the current probe
	caches   map[*CompiledModel]*probCache
}

// probCache is one model's cached probability rows inside a ServeScratch.
type probCache struct {
	idx   map[string]int32 // feature-sequence key → row in probs
	probs []float64        // cached rows, ClassCount floats each
}

// NewServeScratch allocates an empty scratch; its buffers grow to the
// largest page the worker sees and are then reused.
func NewServeScratch() *ServeScratch {
	return &ServeScratch{}
}
