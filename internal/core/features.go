package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ceres/internal/dom"
	"ceres/internal/mlr"
)

// FeatureOptions tunes §4.2's node representation.
type FeatureOptions struct {
	// MaxAncestors bounds how far up the tree structural features reach
	// (default 5, per Vertex).
	MaxAncestors int
	// SiblingWindow bounds how many siblings on either side of each
	// ancestor contribute features (default 5, "up to a width of 5 on
	// either side").
	SiblingWindow int
	// TextAncestors bounds how far up text features look for frequent
	// strings (default 3).
	TextAncestors int
	// FrequentStringMinFrac: strings appearing on at least this fraction
	// of pages join the frequent-string lexicon (default 0.2).
	FrequentStringMinFrac float64
	// MaxFrequentStringLen drops long strings from the lexicon
	// (default 40 bytes).
	MaxFrequentStringLen int
	// DisableStructural / DisableText switch feature families off for the
	// ablation of DESIGN.md §4.
	DisableStructural bool
	DisableText       bool

	// applied marks the options as fully resolved: withDefaults leaves
	// them untouched, so zero values set through Explicit survive instead
	// of being re-defaulted.
	applied bool
}

// Explicit returns o marked as fully resolved: every field — including
// zeros — is taken literally, and defaults are no longer substituted.
// This is how a caller legitimately sets a zero value (e.g.
// FrequentStringMinFrac: 0) that the zero-means-default convention would
// otherwise swallow.
func (o FeatureOptions) Explicit() FeatureOptions {
	o.applied = true
	return o
}

func (o FeatureOptions) withDefaults() FeatureOptions {
	if o.applied {
		return o
	}
	o.applied = true
	if o.MaxAncestors == 0 {
		o.MaxAncestors = 5
	}
	if o.SiblingWindow == 0 {
		o.SiblingWindow = 5
	}
	if o.TextAncestors == 0 {
		o.TextAncestors = 3
	}
	if o.FrequentStringMinFrac == 0 {
		o.FrequentStringMinFrac = 0.2
	}
	if o.MaxFrequentStringLen == 0 {
		o.MaxFrequentStringLen = 40
	}
	return o
}

// FeaturizerState is the serializable form of a Featurizer: its options,
// the feature dictionary, and the frequent-string lexicon (sorted for
// deterministic output).
type FeaturizerState struct {
	Opts     FeatureOptions
	Dict     mlr.DictState
	Frequent []string
}

// State snapshots the featurizer.
func (fz *Featurizer) State() FeaturizerState {
	st := FeaturizerState{Opts: fz.opts, Dict: fz.dict.State()}
	st.Frequent = make([]string, 0, len(fz.frequent))
	for s := range fz.frequent {
		st.Frequent = append(st.Frequent, s)
	}
	sort.Strings(st.Frequent)
	return st
}

// maxFeatureReach bounds the ancestor levels and the sibling window a
// restored featurizer may ask for (the paper's, and the defaults, are 5
// and 5). Compile allocates (levels+1)×(2·window+1) tables and a served
// page one memo word per element and level, and a state comes off the
// network (PUT /v1/sites/{site}/model): a negative value would panic
// there and a huge one buy gigabytes for a few bytes of file.
const maxFeatureReach = 64

// RestoreFeaturizer rebuilds a featurizer from its state. The restored
// dictionary keeps its frozen flag, so a trained featurizer stays frozen.
func RestoreFeaturizer(st FeaturizerState) (*Featurizer, error) {
	for _, v := range []int{st.Opts.MaxAncestors, st.Opts.SiblingWindow, st.Opts.TextAncestors} {
		if v < 0 || v > maxFeatureReach {
			return nil, fmt.Errorf("core: feature options %+v reach outside [0, %d]", st.Opts, maxFeatureReach)
		}
	}
	dict, err := mlr.RestoreDict(st.Dict)
	if err != nil {
		return nil, err
	}
	// Serialized states always carry resolved options (NewFeaturizer
	// resolves before storing), so restore takes them literally — this is
	// what lets an explicit zero survive a round trip.
	fz := &Featurizer{
		opts:     st.Opts.Explicit(),
		dict:     dict,
		frequent: make(map[string]bool, len(st.Frequent)),
	}
	for _, s := range st.Frequent {
		fz.frequent[s] = true
	}
	return fz, nil
}

// structuralAttrs are the HTML attributes Vertex-style features read
// (§4.2: "tag, class, ID, itemprop, itemtype, and property").
var structuralAttrs = [...]string{"class", "id", "itemprop", "itemtype", "property"}

// Featurizer converts fields to sparse vectors over a shared dictionary.
type Featurizer struct {
	opts FeatureOptions
	dict *mlr.Dict
	// frequent is the site-level frequent-string lexicon for text
	// features ("a list of strings that appear frequently on the
	// website", §4.2).
	frequent map[string]bool
}

// NewFeaturizer builds the featurizer for one template cluster,
// assembling the frequent-string lexicon from the given pages.
func NewFeaturizer(pages []*Page, opts FeatureOptions) *Featurizer {
	opts = opts.withDefaults()
	fz := &Featurizer{
		opts: opts,
		dict: mlr.NewDict(),
	}
	fz.frequent = frequentStrings(pages, opts)
	return fz
}

// Dict exposes the feature dictionary (frozen by the trainer before
// extraction).
func (fz *Featurizer) Dict() *mlr.Dict { return fz.dict }

// Freeze stops dictionary growth; unseen features are then dropped.
func (fz *Featurizer) Freeze() { fz.dict.Freeze() }

// frequentStrings counts, per distinct collapsed text, the number of pages
// it appears on, and keeps those above the threshold.
func frequentStrings(pages []*Page, opts FeatureOptions) map[string]bool {
	pageCount := map[string]int{}
	seen := map[string]bool{}
	for _, p := range pages {
		clear(seen)
		for _, f := range p.Fields {
			if len(f.Text) > opts.MaxFrequentStringLen || f.Text == "" {
				continue
			}
			if !seen[f.Text] {
				seen[f.Text] = true
				pageCount[f.Text]++
			}
		}
	}
	min := int(float64(opts.FrequentStringMinFrac*float64(len(pages))) + 0.5)
	if min < 2 {
		min = 2
	}
	// A field's text is usually a substring of its page's HTML (the dom
	// package's entity and whitespace fast paths copy nothing), so a key
	// kept as it is would pin a whole training page for as long as the
	// model lives. The lexicon is a few dozen short strings: copy them.
	out := map[string]bool{}
	for s, n := range pageCount {
		if n >= min {
			out[strings.Clone(s)] = true
		}
	}
	return out
}

// Features computes the sparse vector of field fi of a page streamed
// under featureStreamOptions(opts): structural 4-tuples (attribute name,
// attribute value, ancestor distance, sibling offset) over the field's
// element, its ancestors and the ancestors' siblings, plus frequent-string
// text features keyed by the relative tree position of the string. Each
// name is built in one reused byte buffer and looked up without a string
// of its own; only a name the dictionary interns is allocated.
func (fz *Featurizer) Features(sp *dom.StreamPage, fi int) mlr.Vector {
	return fz.appendFeatures(nil, sp, fi)
}

// appendFeatures appends the vector Features computes to dst. Names are
// emitted in one fixed order — per level, the element, then its siblings
// nearest first, the preceding one before the following; then the text
// walk — which is the order an unfrozen dictionary numbers them in.
func (fz *Featurizer) appendFeatures(dst []mlr.Feature, sp *dom.StreamPage, fi int) []mlr.Feature {
	var nameBuf [128]byte
	var featBuf [64]mlr.Feature
	fn := featureNames{dict: fz.dict, name: nameBuf[:0], feats: featBuf[:0]}
	// Level 0 is the element containing the text; record 0, the document,
	// ends both walks.
	elem := sp.FieldParent(fi)
	if !fz.opts.DisableStructural {
		node := elem
		for lvl := 0; node != 0 && lvl <= fz.opts.MaxAncestors; lvl++ {
			fn = fn.structural(sp, node, lvl, 0)
			// Siblings of this ancestor within the window, at every level
			// (§4.2: the node itself, its ancestors, and their siblings).
			sibs := sp.ElemSiblings(node)
			pos := int(sp.ElemIndex(node))
			for off := 1; off <= fz.opts.SiblingWindow; off++ {
				if pos-off >= 0 {
					fn = fn.structural(sp, sibs[pos-off], lvl, -off)
				}
				if pos+off < len(sibs) {
					fn = fn.structural(sp, sibs[pos+off], lvl, off)
				}
			}
			node = sp.Parent(node)
		}
	}
	if !fz.opts.DisableText {
		// Frequent strings in nearby nodes: for each ancestor level, scan
		// the ancestor's preceding element siblings (and their subtree
		// text) — where key/value templates put their labels. Text the
		// stream could not keep is longer than any lexicon string.
		maxText := fz.opts.MaxFrequentStringLen
		node := elem
		for lvl := 0; node != 0 && lvl <= fz.opts.TextAncestors; lvl++ {
			sibs := sp.ElemSiblings(node)
			pos := int(sp.ElemIndex(node))
			for off := 1; off <= fz.opts.SiblingWindow && pos-off >= 0; off++ {
				if text, ok := sp.SubText(sibs[pos-off], maxText); ok && fz.frequent[string(text)] {
					fn = fn.text(lvl, -off, text)
				}
			}
			// Direct text of the ancestor itself (e.g. heading text mixed
			// with the value container).
			if lvl > 0 {
				if own, ok := sp.OwnText(node); ok && len(own) != 0 && fz.frequent[string(own)] {
					fn = fn.text(lvl, 0, own)
				}
			}
			node = sp.Parent(node)
		}
	}
	return append(dst, mlr.NewVector(fn.feats)...)
}

// exampleArena carves the example vectors of one BuildExamples call out
// of shared chunks instead of allocating each on its own, and stores each
// distinct vector once: a templated site's examples mostly repeat an
// earlier one, and a repeat is handed the earlier vector. A chunk holds
// exampleChunk features (64 KiB); a vector that does not fit in what is
// left of one gets an allocation of its own, and the next vector starts a
// new chunk. A call so leaves less than one chunk unused.
type exampleArena struct {
	chunk []mlr.Feature
	seen  map[string]mlr.Vector // the vectors stored so far, by content
	key   []byte
}

const exampleChunk = 4096

// features is Featurizer.Features with the vector carved from the arena.
func (a *exampleArena) features(fz *Featurizer, sp *dom.StreamPage, fi int) mlr.Vector {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]mlr.Feature, 0, exampleChunk)
	}
	free := a.chunk[len(a.chunk):]
	v := mlr.Vector(fz.appendFeatures(free, sp, fi))
	fits := len(v) <= cap(free)
	if !fits {
		a.chunk = nil
	}
	if len(v) == 0 {
		return nil
	}
	a.key = v.AppendKey(a.key[:0])
	if stored, ok := a.seen[string(a.key)]; ok {
		return stored
	}
	if fits {
		a.chunk = a.chunk[:len(a.chunk)+len(v)]
	}
	v = v[:len(v):len(v)]
	if a.seen == nil {
		a.seen = make(map[string]mlr.Vector)
	}
	a.seen[string(a.key)] = v
	return v
}

// featureNames collects one field's features: name holds the name being
// built, feats the IDs found so far. Features keeps both in stack arrays;
// the methods take and return it by value, which keeps them there.
type featureNames struct {
	dict  *mlr.Dict
	name  []byte
	feats []mlr.Feature
}

// add looks the built name up, interning it unless the dictionary is
// frozen.
func (fn featureNames) add() featureNames {
	if id := fn.dict.IDBytes(fn.name); id >= 0 {
		fn.feats = append(fn.feats, mlr.Feature{Index: id, Value: 1})
	}
	return fn
}

// prefix starts a name: kind|lvl|off|.
func (fn featureNames) prefix(kind byte, lvl, off int) featureNames {
	fn.name = append(fn.name[:0], kind, '|')
	fn.name = strconv.AppendInt(fn.name, int64(lvl), 10)
	fn.name = append(fn.name, '|')
	fn.name = strconv.AppendInt(fn.name, int64(off), 10)
	fn.name = append(fn.name, '|')
	return fn
}

// structural emits the 4-tuple features of element record e:
// s|lvl|off|tag|<tag>, then s|lvl|off|<attr>|<value> per structural
// attribute the element carries non-empty.
func (fn featureNames) structural(sp *dom.StreamPage, e int32, lvl, off int) featureNames {
	fn = fn.prefix('s', lvl, off)
	at := len(fn.name)
	fn.name = append(append(fn.name, "tag|"...), sp.Tag(e)...)
	fn = fn.add()
	for i, attr := range structuralAttrs {
		if v, ok := sp.AttrValue(e, i); ok && len(v) != 0 {
			fn.name = append(append(append(fn.name[:at], attr...), '|'), v...)
			fn = fn.add()
		}
	}
	return fn
}

// text emits the frequent-string feature t|lvl|off|<text>.
func (fn featureNames) text(lvl, off int, text []byte) featureNames {
	fn = fn.prefix('t', lvl, off)
	fn.name = append(fn.name, text...)
	return fn.add()
}
