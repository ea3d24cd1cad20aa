package core

import (
	"fmt"
	"strconv"
	"strings"

	"ceres/internal/dom"
	"ceres/internal/mlr"
)

// This file compiles a trained model into its serving form (DESIGN.md §5).
// Training and serving read the same stream records; they differ in how a
// feature is found. Training builds each feature's name and looks it up
// in the dictionary, interning what is new; that is fine once per site,
// but serving applies the model to every text field of every page, so the
// name building and map probes would dominate extraction cost. Compile()
// runs once per model and inverts the dictionary twice over: into a
// vocabulary that numbers every tag, attribute value and lexicon string
// the model knows, and into per-(level, offset) tables indexed by those
// numbers. The serve engine (streamserve.go) resolves an element's
// strings to vocabulary IDs once per page; everything after that — the
// context key and, for a context never seen before, the features — is
// integer work with no string assembly and no allocation. Its output is
// identical to Featurizer.Features and the classifier's Proba — the
// differential tests hold it to ExtractPage, the reference in this
// package's test files, over the whole DemoCorpus.

// CompiledFeaturizer is the frozen, serve-only form of a Featurizer. It
// is immutable after Compile and safe for concurrent use; the per-call
// scratch lives in the caller's ServeScratch.
type CompiledFeaturizer struct {
	opts  FeatureOptions
	vocab vocabulary
	// structural[lvl][off+SiblingWindow] resolves the 4-tuple features of
	// one context position.
	structural [][]structTable
	// text[lvl][off][lexicon ID] is the frequent-string feature of one
	// position, -1 for none: off 0 is the ancestor's own text, off k>0 the
	// k-th preceding element sibling.
	text [][][]int32
	// maxText is the longest lexicon string. Sibling subtree text longer
	// than this can never match, so the stream pass captures at most
	// maxText bytes of it.
	maxText int
	// levels is the deepest ancestor level either walk visits.
	levels int
}

// vocabulary is the union of what the model's tables can tell apart:
// every tag, every value of each structural attribute and every lexicon
// string that is a feature at any (level, offset) position, numbered from
// 1 in dictionary order. ID 0 is "not in the model": such a value emits no
// feature anywhere, so two elements that differ only in it featurize
// alike — which is what keeps a page-unique id="tt0123" from making the
// contexts around it unique.
type vocabulary struct {
	tag map[string]int32
	// tagBySym mirrors tag, indexed by the process-wide dom.TagSym of the
	// key, so the per-element tag lookup is an array index instead of a
	// string hash; the map stays as the fallback for tags the stream could
	// not symbolize (exhausted symbol space).
	tagBySym []int32
	attr     [len(structuralAttrs)]map[string]int32
	text     map[string]int32
}

// kindWidth is the number of vocabulary IDs that describe one element to
// the structural tables: its tag and the structuralAttrs, in that order.
const kindWidth = 1 + len(structuralAttrs)

// structTable resolves the structural features of one (level, offset)
// context position: vocabulary ID → feature ID, -1 (or past the end) for
// none.
type structTable struct {
	tag  []int32
	attr [len(structuralAttrs)][]int32
}

// vocabID returns s's ID in one of the vocabulary's maps, assigning the
// next one on first sight.
func vocabID(m map[string]int32, s string) int32 {
	id, ok := m[s]
	if !ok {
		id = int32(len(m)) + 1
		m[s] = id
	}
	return id
}

// setFeat records feat under vocabulary ID key, growing the table with
// "no feature" entries as needed.
func setFeat(tbl []int32, key, feat int32) []int32 {
	for int(key) >= len(tbl) {
		tbl = append(tbl, -1)
	}
	tbl[key] = feat
	return tbl
}

// featAt returns the feature a position's table holds for vocabulary ID
// key, -1 for none.
//
//ceres:allocfree
func featAt(tbl []int32, key int32) int32 {
	if int(key) < len(tbl) {
		return tbl[key]
	}
	return -1
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
	cf.vocab.tag = make(map[string]int32)
	for i := range cf.vocab.attr {
		cf.vocab.attr[i] = make(map[string]int32)
	}
	cf.vocab.text = make(map[string]int32)
	cf.structural = make([][]structTable, o.MaxAncestors+1)
	for i := range cf.structural {
		cf.structural[i] = make([]structTable, 2*o.SiblingWindow+1)
	}
	cf.text = make([][][]int32, o.TextAncestors+1)
	for i := range cf.text {
		cf.text[i] = make([][]int32, o.SiblingWindow+1)
	}
	if !o.DisableStructural {
		cf.levels = o.MaxAncestors
	}
	if !o.DisableText && o.TextAncestors > cf.levels {
		cf.levels = o.TextAncestors
	}
	for id := 0; id < fz.dict.Len(); id++ {
		cf.index(fz.dict.Name(id), int32(id))
	}
	// Tags intern through dom.TagSym — the symbols the stream pass assigns;
	// one that cannot (exhausted symbol space) stays map-only.
	maxSym := int32(0)
	for k := range cf.vocab.tag {
		maxSym = max(maxSym, dom.TagSym(k))
	}
	cf.vocab.tagBySym = make([]int32, maxSym+1)
	for k, id := range cf.vocab.tag {
		if s := dom.TagSym(k); s > 0 {
			cf.vocab.tagBySym[s] = id
		}
	}
	for k := range cf.vocab.text {
		cf.maxText = max(cf.maxText, len(k))
	}
	return cf, nil
}

// index parses one dictionary feature name into the vocabulary and the
// tables. Names that do not match the grammar the trainer emits
// ("s|lvl|off|attr|value", "t|lvl|off|text") or whose positions fall
// outside the configured windows are skipped: Featurizer.Features can never
// look such names up, so ignoring them preserves output equivalence.
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
			t.tag = setFeat(t.tag, vocabID(cf.vocab.tag, v), id)
			return
		}
		for i, attr := range structuralAttrs {
			if v, ok := strings.CutPrefix(rest, attr+"|"); ok {
				t.attr[i] = setFeat(t.attr[i], vocabID(cf.vocab.attr[i], v), id)
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
	cf.text[lvl][-off] = setFeat(cf.text[lvl][-off], vocabID(cf.vocab.text, rest), id)
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
