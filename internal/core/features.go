package core

import (
	"fmt"
	"slices"
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

// structuralAttrs are the HTML attributes Vertex-style features read
// (§4.2: "tag, class, ID, itemprop, itemtype, and property").
var structuralAttrs = [...]string{"class", "id", "itemprop", "itemtype", "property"}

// kindWidth is the number of vocabulary IDs that describe one element to
// the structural tables: its tag and the structuralAttrs, in that order.
const kindWidth = 1 + len(structuralAttrs)

// Featurizer is §4.2's node representation for one template cluster:
// structural 4-tuples (attribute name, attribute value, ancestor distance,
// sibling offset) and frequent-string text features keyed by relative
// tree position, each numbered by an integer feature ID. It holds them as
// a vocabulary and per-(level, offset) tables: training grows them while
// the featurizer is unfrozen (appendFeatures), and serving reads them
// (streamserve.go). Feature names exist only in the serialized state.
// A frozen featurizer is immutable and safe for concurrent use.
type Featurizer struct {
	opts  FeatureOptions
	vocab vocabulary
	// structural[lvl][off+SiblingWindow] resolves the 4-tuple features of
	// one context position.
	structural [][]structTable
	// text[lvl][off][lexicon ID] is the frequent-string feature of one
	// position, -1 for none: off 0 is the ancestor's own text, off k>0 the
	// k-th preceding element sibling.
	text [][][]int32
	// maxText is the longest lexicon string that is a feature. Sibling
	// subtree text longer than this can never match, so the serving stream
	// pass captures at most maxText bytes of it.
	maxText int
	// levels is the deepest ancestor level either walk visits.
	levels int
	// features is the number of feature IDs assigned, the next one an
	// unfrozen featurizer gives.
	features int
	frozen   bool
	// lexicon is the site-level frequent-string lexicon for text
	// features ("a list of strings that appear frequently on the
	// website", §4.2), sorted; frequent holds it as a set while the
	// featurizer is unfrozen, for the text walk to test candidates
	// against. A frozen featurizer reads only the vocabulary.
	lexicon  []string
	frequent map[string]bool
}

// vocabulary is the union of what the tables can tell apart: every tag,
// every value of each structural attribute and every lexicon string that
// is a feature at any (level, offset) position, numbered from 1 in
// feature ID order. ID 0 is "not in the model": such a value emits no
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

// structTable resolves the structural features of one (level, offset)
// context position: vocabulary ID → feature ID, -1 (or past the end) for
// none.
type structTable struct {
	tag  []int32
	attr [len(structuralAttrs)][]int32
}

// newFeaturizer returns a featurizer with empty tables under resolved
// options.
func newFeaturizer(o FeatureOptions) *Featurizer {
	fz := &Featurizer{opts: o}
	fz.vocab.tag = make(map[string]int32)
	fz.vocab.tagBySym = make([]int32, 1)
	for i := range fz.vocab.attr {
		fz.vocab.attr[i] = make(map[string]int32)
	}
	fz.vocab.text = make(map[string]int32)
	fz.structural = make([][]structTable, o.MaxAncestors+1)
	for i := range fz.structural {
		fz.structural[i] = make([]structTable, 2*o.SiblingWindow+1)
	}
	fz.text = make([][][]int32, o.TextAncestors+1)
	for i := range fz.text {
		fz.text[i] = make([][]int32, o.SiblingWindow+1)
	}
	if !o.DisableStructural {
		fz.levels = o.MaxAncestors
	}
	if !o.DisableText && o.TextAncestors > fz.levels {
		fz.levels = o.TextAncestors
	}
	return fz
}

// NewFeaturizer builds the featurizer for one template cluster,
// assembling the frequent-string lexicon from the given pages. Its tables
// are empty until the training walk (appendFeatures) fills them.
func NewFeaturizer(pages []*Page, opts FeatureOptions) *Featurizer {
	fz := newFeaturizer(opts.withDefaults())
	fz.frequent = frequentStrings(pages, fz.opts)
	fz.lexicon = sortedKeys(fz.frequent)
	return fz
}

// Freeze stops the tables' growth; features they do not hold are then
// dropped.
func (fz *Featurizer) Freeze() {
	fz.frozen = true
	fz.frequent = nil
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

// addTag numbers a tag new to the vocabulary, in the map and under its
// dom.TagSym.
func (v *vocabulary) addTag(tag string) int32 {
	id := vocabID(v.tag, tag)
	if s := dom.TagSym(tag); s > 0 {
		for int(s) >= len(v.tagBySym) {
			v.tagBySym = append(v.tagBySym, 0)
		}
		v.tagBySym[s] = id
	}
	return id
}

// tagID returns the vocabulary ID of element e's tag, 0 when the
// vocabulary does not hold it.
//
//ceres:allocfree
func (v *vocabulary) tagID(sp *dom.StreamPage, e int32) int32 {
	if s := sp.TagSymOf(e); s > 0 {
		if int(s) < len(v.tagBySym) {
			return v.tagBySym[s]
		}
		return 0
	}
	return v.tag[sp.Tag(e)]
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

// Features streams p once and returns the sparse vectors of its fields
// fis. An unfrozen featurizer numbers the features it has not met in the
// order of fis; featurizing a field again adds none. internal/bench's
// CERES-Baseline featurizes its node pairs with it.
func (fz *Featurizer) Features(p *Page, fis []int) []mlr.Vector {
	s := streamerPool.Get().(*pageStreamer)
	defer streamerPool.Put(s)
	s.opts = featureStreamOptions(fz.opts)
	sp := s.stream(p)
	out := make([]mlr.Vector, len(fis))
	for i, fi := range fis {
		out[i] = fz.appendFeatures(nil, sp, fi)
	}
	// A pooled streamer streams under PreparePage's options and must not
	// pin the page.
	s.opts, s.last = dom.StreamOptions{}, nil
	return out
}

// appendFeatures appends the sparse vector of field fi of a page streamed
// under featureStreamOptions(opts) to dst: structural 4-tuples over the
// field's element, its ancestors and the ancestors' siblings, plus
// frequent-string text features keyed by the relative tree position of
// the string. Features are met in one fixed order — per level, the
// element, then its siblings nearest first, the preceding one before the
// following; then the text walk. An unfrozen featurizer numbers each
// feature the first time it meets it; a frozen one drops what its tables
// do not hold.
func (fz *Featurizer) appendFeatures(dst []mlr.Feature, sp *dom.StreamPage, fi int) []mlr.Feature {
	var featBuf [64]mlr.Feature
	feats := featBuf[:0]
	w := fz.opts.SiblingWindow
	// Level 0 is the element containing the text; record 0, the document,
	// ends both walks.
	elem := sp.FieldParent(fi)
	if !fz.opts.DisableStructural {
		node := elem
		for lvl := 0; node != 0 && lvl <= fz.opts.MaxAncestors; lvl++ {
			row := fz.structural[lvl]
			feats = fz.element(feats, &row[w], sp, node)
			// Siblings of this ancestor within the window, at every level
			// (§4.2: the node itself, its ancestors, and their siblings).
			sibs := sp.ElemSiblings(node)
			pos := int(sp.ElemIndex(node))
			for off := 1; off <= w; off++ {
				if pos-off >= 0 {
					feats = fz.element(feats, &row[w-off], sp, sibs[pos-off])
				}
				if pos+off < len(sibs) {
					feats = fz.element(feats, &row[w+off], sp, sibs[pos+off])
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
			row := fz.text[lvl]
			sibs := sp.ElemSiblings(node)
			pos := int(sp.ElemIndex(node))
			for off := 1; off <= w && pos-off >= 0; off++ {
				if text, ok := sp.SubText(sibs[pos-off], maxText); ok {
					feats = fz.frequentText(feats, &row[off], text)
				}
			}
			// Direct text of the ancestor itself (e.g. heading text mixed
			// with the value container).
			if lvl > 0 {
				if own, ok := sp.OwnText(node); ok {
					feats = fz.frequentText(feats, &row[0], own)
				}
			}
			node = sp.Parent(node)
		}
	}
	return append(dst, mlr.NewVector(feats)...)
}

// element appends the features element e has at the position whose table
// is t: its tag, then each structural attribute it carries non-empty.
func (fz *Featurizer) element(feats []mlr.Feature, t *structTable, sp *dom.StreamPage, e int32) []mlr.Feature {
	id := fz.vocab.tagID(sp, e)
	if id == 0 && !fz.frozen {
		// The tag string is the stream scratch's; the vocabulary keeps a
		// copy of its own.
		id = fz.vocab.addTag(strings.Clone(sp.Tag(e)))
	}
	feats = fz.feature(feats, &t.tag, id)
	for i := range structuralAttrs {
		if v, ok := sp.AttrValue(e, i); ok && len(v) != 0 {
			id, known := probeStr(fz.vocab.attr[i], v)
			if !known && !fz.frozen {
				id = vocabID(fz.vocab.attr[i], string(v))
			}
			feats = fz.feature(feats, &t.attr[i], id)
		}
	}
	return feats
}

// frequentText appends the text feature text is at the position whose
// table is *tbl, if it is a lexicon string.
func (fz *Featurizer) frequentText(feats []mlr.Feature, tbl *[]int32, text []byte) []mlr.Feature {
	id, known := probeStr(fz.vocab.text, text)
	if !known {
		if fz.frozen || !fz.frequent[string(text)] {
			return feats
		}
		id = vocabID(fz.vocab.text, string(text))
		fz.maxText = max(fz.maxText, len(text))
	}
	return fz.feature(feats, tbl, id)
}

// feature appends the feature *tbl holds for vocabulary ID id (0: a value
// a frozen featurizer does not know); an unfrozen featurizer numbers one
// the table does not hold yet.
func (fz *Featurizer) feature(feats []mlr.Feature, tbl *[]int32, id int32) []mlr.Feature {
	if id == 0 {
		return feats
	}
	f := featAt(*tbl, id)
	if f < 0 {
		if fz.frozen {
			return feats
		}
		f = int32(fz.features)
		fz.features++
		*tbl = setFeat(*tbl, id, f)
	}
	return append(feats, mlr.Feature{Index: int(f), Value: 1})
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

// features is appendFeatures with the vector carved from the arena.
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

// FeaturizerState is the serializable form of a Featurizer: its options,
// every feature's name in ID order, and the frequent-string lexicon
// (sorted for deterministic output). A name is the feature spelled out:
// "s|lvl|off|attr|value" for a structural 4-tuple, attr being "tag" or one
// of the structural attributes, and "t|lvl|off|text" for a frequent
// string (off ≤ 0). State renders them from the tables and
// RestoreFeaturizer parses them back; nothing else reads or writes one.
// Frozen is kept for the file format: RestoreFeaturizer freezes whatever
// it reads.
type FeaturizerState struct {
	Opts     FeatureOptions
	Names    []string
	Frozen   bool
	Frequent []string
}

// State snapshots the featurizer, rendering each feature's name from the
// table slot that holds it.
func (fz *Featurizer) State() FeaturizerState {
	names := make([]string, fz.features)
	render := func(kind string, lvl, off int, attr string, values []string, tbl []int32) {
		if len(tbl) == 0 {
			return
		}
		prefix := kind + strconv.Itoa(lvl) + "|" + strconv.Itoa(off) + "|" + attr
		for id, f := range tbl {
			if f >= 0 {
				names[f] = prefix + values[id]
			}
		}
	}
	tags, texts := valuesByID(fz.vocab.tag), valuesByID(fz.vocab.text)
	var attrs [len(structuralAttrs)][]string
	for a := range attrs {
		attrs[a] = valuesByID(fz.vocab.attr[a])
	}
	w := fz.opts.SiblingWindow
	for lvl, row := range fz.structural {
		for i := range row {
			t := &row[i]
			render("s|", lvl, i-w, "tag|", tags, t.tag)
			for a, attr := range structuralAttrs {
				render("s|", lvl, i-w, attr+"|", attrs[a], t.attr[a])
			}
		}
	}
	for lvl, row := range fz.text {
		for off, tbl := range row {
			render("t|", lvl, -off, "", texts, tbl)
		}
	}
	return FeaturizerState{Opts: fz.opts, Names: names, Frozen: fz.frozen, Frequent: slices.Clone(fz.lexicon)}
}

// valuesByID inverts one of the vocabulary's maps.
func valuesByID(m map[string]int32) []string {
	byID := make([]string, len(m)+1)
	for v, id := range m {
		byID[id] = v
	}
	return byID
}

// maxFeatureReach bounds the ancestor levels and the sibling window a
// restored featurizer may ask for (the paper's, and the defaults, are 5
// and 5). A featurizer allocates (levels+1)×(2·window+1) tables and a
// served page one memo word per element and level, and a state comes off
// the network (PUT /v1/sites/{site}/model): a negative value would panic
// there and a huge one buy gigabytes for a few bytes of file.
const maxFeatureReach = 64

// RestoreFeaturizer rebuilds a featurizer from its state, placing each
// name in the table slot it spells out. A name that fits no slot — off
// the grammar, or at a level or offset outside the windows — and a second
// name for a slot already taken are refused: either would leave a feature
// ID that the tables cannot give back. The featurizer is frozen whatever
// the state says: a state holds a trained featurizer, which training
// freezes before it fits, and serving reads the tables from many
// goroutines.
//
// The names are parsed in one pass, which numbers the vocabulary; every
// table is then carved, exactly as long as the largest key it holds, from
// one array, and a second pass fills in the feature IDs.
func RestoreFeaturizer(st FeaturizerState) (*Featurizer, error) {
	for _, v := range []int{st.Opts.MaxAncestors, st.Opts.SiblingWindow, st.Opts.TextAncestors} {
		if v < 0 || v > maxFeatureReach {
			return nil, fmt.Errorf("core: feature options %+v reach outside [0, %d]", st.Opts, maxFeatureReach)
		}
	}
	// Serialized states always carry resolved options (NewFeaturizer
	// resolves before storing), so restore takes them literally — this is
	// what lets an explicit zero survive a round trip.
	fz := newFeaturizer(st.Opts.Explicit())
	slots := make([]slot, len(st.Names))
	bad := len(st.Names) // the first name that fits no slot
	for id, name := range st.Names {
		sl, ok := fz.slotOf(name)
		if !ok {
			bad = id
			break
		}
		slots[id] = sl
	}
	slots = slots[:bad]
	sizes := make([]int32, fz.textIndex(len(fz.text), 0))
	var total int
	for _, sl := range slots {
		if n := sl.key + 1; n > sizes[sl.table] {
			total += int(n - sizes[sl.table])
			sizes[sl.table] = n
		}
	}
	all := make([]int32, total)
	for i := range all {
		all[i] = -1
	}
	for t, n := range sizes {
		if n > 0 {
			*fz.table(t) = all[:n:n]
			all = all[n:]
		}
	}
	for id, sl := range slots {
		tbl := *fz.table(int(sl.table))
		if tbl[sl.key] >= 0 {
			bad = id
			break
		}
		tbl[sl.key] = int32(id)
	}
	if bad < len(st.Names) {
		return nil, fmt.Errorf("core: feature %d: name %q fits no free slot", bad, st.Names[bad])
	}
	fz.features = len(st.Names)
	fz.lexicon = st.Frequent
	fz.Freeze()
	return fz, nil
}

// slot is where a feature name puts its ID: a table, as structIndex and
// textIndex number them, and the vocabulary key within it.
type slot struct{ table, key int32 }

// structIndex and textIndex number the featurizer's tables: structural
// position (lvl, off) holds kindWidth of them, the tag's and then the
// structuralAttrs'; the text positions (lvl, off) follow, one table each.
func (fz *Featurizer) structIndex(lvl, off int) int {
	w := fz.opts.SiblingWindow
	return (lvl*(2*w+1) + off + w) * kindWidth
}

func (fz *Featurizer) textIndex(lvl, off int) int {
	w := fz.opts.SiblingWindow
	return len(fz.structural)*(2*w+1)*kindWidth + lvl*(w+1) + off
}

// table returns table t of that numbering.
func (fz *Featurizer) table(t int) *[]int32 {
	w := fz.opts.SiblingWindow
	if text := fz.textIndex(0, 0); t >= text {
		t -= text
		return &fz.text[t/(w+1)][t%(w+1)]
	}
	kind, pos := t%kindWidth, t/kindWidth
	st := &fz.structural[pos/(2*w+1)][pos%(2*w+1)]
	if kind == 0 {
		return &st.tag
	}
	return &st.attr[kind-1]
}

// slotOf parses one feature name into the vocabulary and reports the slot
// it names, false when it names none.
func (fz *Featurizer) slotOf(name string) (slot, bool) {
	rest, structural := strings.CutPrefix(name, "s|")
	if !structural {
		var ok bool
		if rest, ok = strings.CutPrefix(name, "t|"); !ok {
			return slot{}, false
		}
	}
	lvl, rest, ok := cutInt(rest)
	if !ok || lvl < 0 {
		return slot{}, false
	}
	off, rest, ok := cutInt(rest)
	if !ok || rest == "" {
		return slot{}, false
	}
	w := fz.opts.SiblingWindow
	if structural {
		if lvl >= len(fz.structural) || off < -w || off > w {
			return slot{}, false
		}
		t := int32(fz.structIndex(lvl, off))
		if v, ok := strings.CutPrefix(rest, "tag|"); ok {
			return slot{t, fz.vocab.addTag(v)}, true
		}
		for i, attr := range structuralAttrs {
			if v, ok := strings.CutPrefix(rest, attr+"|"); ok {
				return slot{t + 1 + int32(i), vocabID(fz.vocab.attr[i], v)}, true
			}
		}
		return slot{}, false
	}
	// Text feature: off is 0 (ancestor own text) or negative (preceding
	// element sibling); the table stores the magnitude.
	if lvl >= len(fz.text) || off > 0 || -off > w {
		return slot{}, false
	}
	fz.maxText = max(fz.maxText, len(rest))
	return slot{int32(fz.textIndex(lvl, -off)), vocabID(fz.vocab.text, rest)}, true
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
