package dom

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// This file implements the stream pass, the one page representation
// training and serving read (DESIGN.md §5). Stream lexes a page once,
// maintaining only the open-element stack, and records per element
// exactly the structural context featurization consumes — interned tag symbol, parent link, element index,
// same-tag XPath ordinal, the configured attribute values, and bounded
// own/subtree text — plus every non-empty text field, without allocating a
// single dom.Node. The records are flat int32 structs in reusable arenas,
// so a steady-state serve worker streams pages with no per-page
// allocation. Output is bit-identical to Parse + TextFields + the
// tree accessors; the differential tests in stream_test.go and
// the root package enforce that.

// streamMaxAttrs bounds how many attribute keys a stream can capture per
// element (the serve path needs the five structuralAttrs).
const streamMaxAttrs = 6

// StreamOptions configures one streaming pass.
type StreamOptions struct {
	// MaxText bounds the captured own/subtree text per element — the
	// serve path passes the longest frequent-string key, since longer
	// text can never match the lexicon. Text beyond the bound is marked
	// overflowed and fails probes.
	MaxText int
	// Attrs lists the lowercase attribute keys to capture per element
	// (first occurrence wins, like Node.Attr). At most streamMaxAttrs.
	Attrs []string
	// Signature collects a cluster-routing signature key per element as
	// tags open (see StreamPage.AppendSignature).
	Signature bool
}

// streamElem is the flat record of one element: everything the compiled
// featurizer reads about a context node. parent is an element record
// index; record 0 is the synthetic document, whose parent is -1.
type streamElem struct {
	parent    int32
	nameID    int32
	elemIndex int32 // index among parent's element children
	ordinal   int32 // 1-based same-tag XPath ordinal (set by index())
	attrOff   [streamMaxAttrs]int32
	attrLen   [streamMaxAttrs]int32
	ownOff    int32
	ownLen    int32
	subOff    int32
	subLen    int32
	flags     uint8
}

const (
	elemOwnOverflow uint8 = 1 << iota // own text exceeds MaxText
	elemSubOverflow                   // subtree text exceeds MaxText
)

// streamField is one non-empty text field: its parent element record, its
// 1-based text() XPath ordinal, and its collapsed text span.
type streamField struct {
	parent  int32
	ordinal int32
	off     int32
	len     int32
}

// nameInfo is the per-tag intern record: the canonical lowercase name, its
// process-wide symbol, and the parse-rule flags the main loop consults, so
// the hot path never probes the rule maps with freshly built strings. open
// counts the frames of this name on the current page's stack, so an end
// tag that names nothing open is dropped without scanning the stack.
type nameInfo struct {
	name    string
	sym     int32
	void    bool
	raw     bool
	block   bool
	closers map[string]bool
	open    int32
}

// streamFrame is one open element on the stack. own/sub accumulate the
// frame's bounded text context; the buffers are retained per stack slot
// across pages.
type streamFrame struct {
	rec       int32
	nameID    int32
	textCount int32
	elemKids  int32
	own       []byte
	sub       []byte
	ownOver   bool
	subOver   bool
}

// StreamScratch owns the reusable storage behind streaming passes: the
// tag intern table (which persists across pages — template sites reuse a
// handful of tags) and the per-page record arenas. A scratch serves one
// goroutine at a time.
type StreamScratch struct {
	names   []nameInfo
	nameIDs map[string]int32
	page    StreamPage
}

// NewStreamScratch returns an empty scratch; its arenas grow to the
// largest page streamed and are then reused.
func NewStreamScratch() *StreamScratch {
	sc := &StreamScratch{nameIDs: make(map[string]int32, 64)}
	sc.page.sc = sc
	return sc
}

// lookup returns the scratch-local ID of a lowercase tag name seen before:
// a single map probe with no copy.
func (sc *StreamScratch) lookup(b []byte) (int32, bool) {
	id, ok := sc.nameIDs[string(b)]
	return id, ok
}

// intern resolves a lowercase tag name to its scratch-local ID, assigning
// one (and the process-wide symbol) on first sight.
func (sc *StreamScratch) intern(b []byte) int32 {
	if id, ok := sc.lookup(b); ok {
		return id
	}
	s := string(b)
	id := int32(len(sc.names))
	sc.names = append(sc.names, nameInfo{
		name:    s,
		sym:     TagSym(s),
		void:    voidTags[s],
		raw:     rawTextTags[s],
		block:   blockTags[s],
		closers: autoClose[s],
	})
	sc.nameIDs[s] = id
	return id
}

// StreamPage is the result of one streaming pass: flat element and field
// records over shared arenas. It is a view into its scratch, valid only
// until the next Stream call on the same scratch; strings must be copied
// out to outlive it.
type StreamPage struct {
	sc     *StreamScratch
	elems  []streamElem
	fields []streamField

	textArena []byte
	attrArena []byte
	sigArena  []byte
	sigOff    []int32
	sigLen    []int32

	childStart []int32
	childList  []int32
	childPos   []int32

	lx         lexer
	frames     []streamFrame
	pending    []byte
	pendingOn  bool
	pendingOrd int32
	pieceBuf   []byte
	rawBuf     []byte
	tagBuf     []byte
	xstack     []int32
	ordEpoch   []int32
	ordCount   []int32

	opts     StreamOptions
	classIdx int
	maxText  int
	pID      int32
}

var pTagBytes = []byte("p")

// Stream lexes src in a single pass and returns the page's streaming
// records. The returned page aliases the scratch and src; both must stay
// untouched while the page is in use.
func (sc *StreamScratch) Stream(src []byte, opts StreamOptions) *StreamPage {
	p := &sc.page
	p.reset(opts)
	p.run(src)
	return p
}

func (p *StreamPage) reset(opts StreamOptions) {
	if len(opts.Attrs) > streamMaxAttrs {
		panic(fmt.Sprintf("dom: StreamOptions.Attrs holds %d keys; max %d", len(opts.Attrs), streamMaxAttrs))
	}
	p.opts = opts
	p.maxText = opts.MaxText
	p.classIdx = -1
	for i, a := range opts.Attrs {
		if a == "class" {
			p.classIdx = i
			break
		}
	}
	p.elems = p.elems[:0]
	p.fields = p.fields[:0]
	p.textArena = p.textArena[:0]
	p.attrArena = p.attrArena[:0]
	p.sigArena = p.sigArena[:0]
	p.sigOff = p.sigOff[:0]
	p.sigLen = p.sigLen[:0]
	p.frames = p.frames[:0]
	for i := range p.sc.names {
		p.sc.names[i].open = 0
	}
	p.pendingOn = false
	p.pID = p.sc.intern(pTagBytes)
	// Record 0 is the synthetic document; its frame never accumulates
	// text context (the document is never probed as a sibling), so both
	// buffers start overflowed and propagation skips them.
	p.elems = append(p.elems, streamElem{parent: -1, nameID: -1})
	p.push(0, -1)
	p.frames[0].ownOver, p.frames[0].subOver = true, true
}

// run is the single forward pass: it pulls the page's tokens from the
// lexer and applies Parse's tree actions — stack pops, implied end tags,
// text merging — to records instead of nodes.
//
//ceres:allocfree
func (p *StreamPage) run(src []byte) {
	p.lx.reset(src)
	for {
		switch kind, lo, hi := p.lx.next(); kind {
		case lexEOF:
			p.finalizePending()
			for len(p.frames) > 1 {
				p.closeFrame()
			}
			p.index()
			return
		case lexText:
			p.textAppend(src[lo:hi])
		case lexComment:
			// A comment node is appended, ending any open text run.
			p.finalizePending()
		case lexDoctype:
			// Doctype appends nothing: an open text run stays open.
		case lexEndTag:
			p.endTag(src[lo:hi])
		case lexStartTag:
			p.startTag(src, src[lo:hi])
		}
	}
}

// textAppend starts a text run if none is open — claiming the run's
// text() ordinal, which depends only on preceding siblings — and appends
// the decoded bytes. Adjacent runs merge exactly like Parse's adjacent
// text nodes: only an appended child (element, comment) or a stack pop
// closes a run.
//
//ceres:allocfree
func (p *StreamPage) textAppend(raw []byte) {
	if !p.pendingOn {
		p.startPending()
	}
	p.pending = appendDecodeEntities(p.pending, raw)
}

//ceres:allocfree
func (p *StreamPage) startPending() {
	p.pendingOn = true
	top := &p.frames[len(p.frames)-1]
	top.textCount++
	p.pendingOrd = top.textCount
	p.pending = p.pending[:0]
}

// finalizePending completes the open text run: collapse once (merged runs
// collapse as a unit, matching Node.Text on merged Data), record a field
// if non-empty, and propagate the piece into the open frames' bounded
// text context.
//
//ceres:allocfree
func (p *StreamPage) finalizePending() {
	if !p.pendingOn {
		return
	}
	p.pendingOn = false
	off := int32(len(p.textArena))
	p.textArena, _ = appendCollapse(p.textArena, p.pending, math.MaxInt)
	n := int32(len(p.textArena)) - off
	if n == 0 {
		return
	}
	top := &p.frames[len(p.frames)-1]
	p.fields = append(p.fields, streamField{parent: top.rec, ordinal: p.pendingOrd, off: off, len: n})
	p.propagate(p.textArena[off:off+n], int(n) > p.maxText, true)
}

// propagate folds one completed text piece into the open frames' bounded
// text accumulators: the top frame's own text when the piece is a direct
// child (direct), and every open frame's subtree text. Outer frames hold
// supersets of inner ones, so overflow is monotone outward and the walk
// stops at the first overflowed frame.
//
//ceres:allocfree
func (p *StreamPage) propagate(piece []byte, over bool, direct bool) {
	top := &p.frames[len(p.frames)-1]
	if direct && !top.ownOver {
		top.own, top.ownOver = appendJoinBounded(top.own, piece, over, p.maxText)
	}
	for i := len(p.frames) - 1; i >= 0; i-- {
		f := &p.frames[i]
		if f.subOver {
			break
		}
		f.sub, f.subOver = appendJoinBounded(f.sub, piece, over, p.maxText)
	}
}

// appendJoinBounded joins piece onto dst with a single space — the
// joinChildText rule — failing once the joined length would exceed max
// (the full text must fit).
//
//ceres:allocfree
func appendJoinBounded(dst []byte, piece []byte, pieceOver bool, max int) ([]byte, bool) {
	if pieceOver {
		return dst, true
	}
	if len(piece) == 0 {
		return dst, false
	}
	need := len(piece)
	if len(dst) > 0 {
		need++
	}
	if len(dst)+need > max {
		return dst, true
	}
	if len(dst) > 0 {
		dst = append(dst, ' ')
	}
	return append(dst, piece...), false
}

// push opens a frame for an element record, reusing the slot's buffers.
//
//ceres:allocfree
func (p *StreamPage) push(rec, nameID int32) {
	if len(p.frames) < cap(p.frames) {
		p.frames = p.frames[:len(p.frames)+1]
	} else {
		p.frames = append(p.frames, streamFrame{})
	}
	if nameID >= 0 {
		p.sc.names[nameID].open++
	}
	f := &p.frames[len(p.frames)-1]
	f.rec, f.nameID = rec, nameID
	f.textCount, f.elemKids = 0, 0
	f.own, f.sub = f.own[:0], f.sub[:0]
	f.ownOver, f.subOver = false, false
}

// closeFrame pops the top frame, committing its accumulated text context
// to the element record.
//
//ceres:allocfree
func (p *StreamPage) closeFrame() {
	f := &p.frames[len(p.frames)-1]
	e := &p.elems[f.rec]
	if n := len(f.own); n > 0 {
		e.ownOff, e.ownLen = int32(len(p.textArena)), int32(n)
		p.textArena = append(p.textArena, f.own...)
	}
	if f.ownOver {
		e.flags |= elemOwnOverflow
	}
	if n := len(f.sub); n > 0 {
		e.subOff, e.subLen = int32(len(p.textArena)), int32(n)
		p.textArena = append(p.textArena, f.sub...)
	}
	if f.subOver {
		e.flags |= elemSubOverflow
	}
	p.sc.names[f.nameID].open--
	p.frames = p.frames[:len(p.frames)-1]
}

// endTag handles "</raw>": pop to the nearest matching open element, or
// ignore the stray end tag — in which case an open text run stays open,
// since Parse appends nothing for it.
//
//ceres:allocfree
func (p *StreamPage) endTag(raw []byte) {
	// Fast path: a well-formed lowercase end tag matching the open
	// element — the overwhelming majority — needs no trim, no case fold
	// and no stack scan.
	if top := len(p.frames) - 1; top >= 1 && eqBytesString(raw, p.sc.names[p.frames[top].nameID].name) {
		p.finalizePending()
		p.closeFrame()
		return
	}
	p.tagBuf = appendLowerFold(p.tagBuf[:0], bytes.TrimSpace(raw))
	id, ok := p.sc.lookup(p.tagBuf)
	if !ok || p.sc.names[id].open == 0 {
		// Stray: a page of these must not scan the whole stack once each.
		return
	}
	i := len(p.frames) - 1 // open > 0: some frame above the document carries id
	for p.frames[i].nameID != id {
		i--
	}
	p.finalizePending()
	for len(p.frames) > i {
		p.closeFrame()
	}
}

// startTag applies Parse's tree actions to the start tag the lexer just
// returned: the configured attributes' values, implied end tags, the
// element record, and void/raw-text/push handling.
func (p *StreamPage) startTag(src, name []byte) {
	p.tagBuf = appendLowerFold(p.tagBuf[:0], name)
	nameID := p.sc.intern(p.tagBuf)
	info := &p.sc.names[nameID]

	var aOff, aLen [streamMaxAttrs]int32
	for i := range aOff {
		aOff[i] = -1
	}
	for _, at := range p.lx.attrs {
		key := src[at.keyLo:at.keyHi]
		for i, a := range p.opts.Attrs {
			if aOff[i] >= 0 || !foldEqASCII(key, a) {
				continue
			}
			off := int32(len(p.attrArena))
			p.attrArena = appendDecodeEntities(p.attrArena, src[at.valLo:at.valHi])
			aOff[i] = off
			aLen[i] = int32(len(p.attrArena)) - off
			break
		}
	}
	selfClosing := p.lx.selfClosing

	// The element (or the pops it implies) is appended, ending any open
	// text run.
	p.finalizePending()
	if !selfClosing {
		// Implied end tags: self-closing tokens skip these, like Parse.
		if info.closers != nil {
			for len(p.frames) > 1 {
				top := &p.frames[len(p.frames)-1]
				if !info.closers[p.sc.names[top.nameID].name] {
					break
				}
				p.closeFrame()
			}
		}
		if info.block {
			if len(p.frames) > 1 && p.frames[len(p.frames)-1].nameID == p.pID {
				p.closeFrame()
			}
		}
	}

	top := &p.frames[len(p.frames)-1]
	rec := int32(len(p.elems))
	p.elems = append(p.elems, streamElem{
		parent:    top.rec,
		nameID:    nameID,
		elemIndex: top.elemKids,
		attrOff:   aOff,
		attrLen:   aLen,
	})
	top.elemKids++
	if p.opts.Signature {
		p.signatureKey(rec)
	}
	switch {
	case selfClosing:
		// Appended only: no children, no raw-text scan.
	case info.void:
		// Void elements never push.
	case info.raw:
		lo, hi := p.lx.rawText(info.name)
		p.rawText(src[lo:hi], rec, info)
	default:
		p.push(rec, nameID)
	}
}

// signatureKey appends the element's cluster-routing key: the last three
// ancestor-or-self tags joined by '/', plus ".class" when a non-empty
// class attribute is present.
//
//ceres:allocfree
func (p *StreamPage) signatureKey(rec int32) {
	e := &p.elems[rec]
	off := int32(len(p.sigArena))
	if par := e.parent; par != 0 {
		if gp := p.elems[par].parent; gp != 0 {
			p.sigArena = append(p.sigArena, p.sc.names[p.elems[gp].nameID].name...)
			p.sigArena = append(p.sigArena, '/')
		}
		p.sigArena = append(p.sigArena, p.sc.names[p.elems[par].nameID].name...)
		p.sigArena = append(p.sigArena, '/')
	}
	p.sigArena = append(p.sigArena, p.sc.names[e.nameID].name...)
	if p.classIdx >= 0 {
		if o, n := e.attrOff[p.classIdx], e.attrLen[p.classIdx]; o >= 0 && n > 0 {
			p.sigArena = append(p.sigArena, '.')
			p.sigArena = append(p.sigArena, p.attrArena[o:o+n]...)
		}
	}
	p.sigOff = append(p.sigOff, off)
	p.sigLen = append(p.sigLen, int32(len(p.sigArena))-off)
}

// rawText records a raw-text element's content. The element was recorded
// but never pushed; its single text child contributes to ancestors' text
// context, and — for <title> only — yields a field (TextFields excludes
// script, style and textarea subtrees, not title).
func (p *StreamPage) rawText(raw []byte, rec int32, info *nameInfo) {
	if len(raw) == 0 {
		return
	}
	data := raw
	if info.name == "title" || info.name == "textarea" {
		p.rawBuf = appendDecodeEntities(p.rawBuf[:0], raw)
		data = p.rawBuf
	}
	e := &p.elems[rec]
	if info.name == "title" {
		// A field needs the full collapsed text, not the bounded form.
		off := int32(len(p.textArena))
		p.textArena, _ = appendCollapse(p.textArena, data, math.MaxInt)
		n := int32(len(p.textArena)) - off
		if n == 0 {
			return
		}
		p.fields = append(p.fields, streamField{parent: rec, ordinal: 1, off: off, len: n})
		e.ownOff, e.ownLen = off, n
		e.subOff, e.subLen = off, n
		over := int(n) > p.maxText
		if over {
			e.flags |= elemOwnOverflow | elemSubOverflow
		}
		p.propagate(p.textArena[off:off+n], over, false)
		return
	}
	piece, over := appendCollapse(p.pieceBuf[:0], data, p.maxText)
	p.pieceBuf = piece
	if len(piece) == 0 && !over {
		return
	}
	if n := int32(len(piece)); n > 0 {
		e.ownOff, e.ownLen = int32(len(p.textArena)), n
		e.subOff, e.subLen = int32(len(p.textArena)), n
		p.textArena = append(p.textArena, piece...)
	}
	if over {
		e.flags |= elemOwnOverflow | elemSubOverflow
	}
	p.propagate(piece, over, false)
}

// index builds the post-pass structures: per-parent element-children
// lists (a counting sort over the parent links, preserving document
// order) and the same-tag XPath ordinals.
//
//ceres:allocfree
func (p *StreamPage) index() {
	n := len(p.elems)
	p.childStart = growInt32(p.childStart, n+1)
	clear(p.childStart)
	for i := 1; i < n; i++ {
		p.childStart[p.elems[i].parent+1]++
	}
	for r := 1; r <= n; r++ {
		p.childStart[r] += p.childStart[r-1]
	}
	p.childList = growInt32(p.childList, n-1)
	p.childPos = growInt32(p.childPos, n)
	copy(p.childPos, p.childStart[:n])
	for i := 1; i < n; i++ {
		par := p.elems[i].parent
		p.childList[p.childPos[par]] = int32(i)
		p.childPos[par]++
	}

	names := len(p.sc.names)
	p.ordEpoch = growInt32(p.ordEpoch, names)
	p.ordCount = growInt32(p.ordCount, names)
	clear(p.ordEpoch)
	epoch := int32(0)
	for r := 0; r < n; r++ {
		kids := p.childList[p.childStart[r]:p.childStart[r+1]]
		if len(kids) == 0 {
			continue
		}
		epoch++
		for _, k := range kids {
			id := p.elems[k].nameID
			if p.ordEpoch[id] != epoch {
				p.ordEpoch[id] = epoch
				p.ordCount[id] = 0
			}
			p.ordCount[id]++
			p.elems[k].ordinal = p.ordCount[id]
		}
	}
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ------------------------------------------------------------- accessors

// Fields returns the number of non-empty text fields, in document order —
// the streaming counterpart of TextFields.
func (p *StreamPage) Fields() int { return len(p.fields) }

// FieldText returns field i's collapsed text, aliasing the page arena.
//
//ceres:allocfree
func (p *StreamPage) FieldText(i int) []byte {
	f := &p.fields[i]
	return p.textArena[f.off : f.off+f.len]
}

// FieldParent returns the element record containing field i (0 = the
// document itself, for top-level text).
//
//ceres:allocfree
func (p *StreamPage) FieldParent(i int) int32 { return p.fields[i].parent }

// Elems returns the number of element records, including the synthetic
// document record 0.
func (p *StreamPage) Elems() int { return len(p.elems) }

// Parent returns e's parent element record; 0 is the document, whose own
// parent is -1.
//
//ceres:allocfree
func (p *StreamPage) Parent(e int32) int32 { return p.elems[e].parent }

// TagSymOf returns e's interned process-wide tag symbol (0 when the
// symbol space was exhausted).
//
//ceres:allocfree
func (p *StreamPage) TagSymOf(e int32) int32 { return p.sc.names[p.elems[e].nameID].sym }

// Tag returns e's canonical lowercase tag name. The string is interned in
// the scratch, so probing serve-side maps with it allocates nothing.
//
//ceres:allocfree
func (p *StreamPage) Tag(e int32) string { return p.sc.names[p.elems[e].nameID].name }

// AttrValue returns the captured value of the i-th configured attribute
// key (StreamOptions.Attrs order) and whether the attribute was present.
//
//ceres:allocfree
func (p *StreamPage) AttrValue(e int32, i int) ([]byte, bool) {
	el := &p.elems[e]
	if el.attrOff[i] < 0 {
		return nil, false
	}
	return p.attrArena[el.attrOff[i] : el.attrOff[i]+el.attrLen[i]], true
}

// NameID returns e's tag-name ID in the scratch: two records streamed on
// one scratch have the same ID exactly when they have the same tag.
//
//ceres:allocfree
func (p *StreamPage) NameID(e int32) int32 { return p.elems[e].nameID }

// Ordinal returns e's 1-based same-tag XPath ordinal, the index of its
// step in AppendFieldXPath.
//
//ceres:allocfree
func (p *StreamPage) Ordinal(e int32) int32 { return p.elems[e].ordinal }

// FieldOrdinal returns field i's 1-based text() XPath ordinal, the index
// of the last step of its AppendFieldXPath.
//
//ceres:allocfree
func (p *StreamPage) FieldOrdinal(i int) int32 { return p.fields[i].ordinal }

// ElemSiblings returns the element children of e's parent, in document
// order, as record indices — Node.ElementSiblings over records.
//
//ceres:allocfree
func (p *StreamPage) ElemSiblings(e int32) []int32 {
	par := p.elems[e].parent
	return p.childList[p.childStart[par]:p.childStart[par+1]]
}

// ElemIndex returns e's position within ElemSiblings.
//
//ceres:allocfree
func (p *StreamPage) ElemIndex(e int32) int32 { return p.elems[e].elemIndex }

// SubText returns e's full collapsed subtree text — Node.Text over
// records — when it fits within max bytes.
//
//ceres:allocfree
func (p *StreamPage) SubText(e int32, max int) ([]byte, bool) {
	el := &p.elems[e]
	if el.flags&elemSubOverflow != 0 || int(el.subLen) > max {
		return nil, false
	}
	return p.textArena[el.subOff : el.subOff+el.subLen], true
}

// OwnText returns e's collapsed direct-child text and whether it is
// probeable: false means the text is non-empty but exceeded the stream's
// MaxText bound, so it cannot match any lexicon key.
//
//ceres:allocfree
func (p *StreamPage) OwnText(e int32) ([]byte, bool) {
	el := &p.elems[e]
	return p.textArena[el.ownOff : el.ownOff+el.ownLen], el.flags&elemOwnOverflow == 0
}

// AppendFieldXPath appends field i's absolute XPath — byte-identical to
// Node.XPath on the corresponding text node — rendering it lazily from
// the record chain, so only emitted extractions pay for path strings.
//
//ceres:allocfree
func (p *StreamPage) AppendFieldXPath(dst []byte, i int) []byte {
	f := &p.fields[i]
	p.xstack = p.xstack[:0]
	for r := f.parent; r != 0; r = p.elems[r].parent {
		p.xstack = append(p.xstack, r)
	}
	for j := len(p.xstack) - 1; j >= 0; j-- {
		e := &p.elems[p.xstack[j]]
		dst = append(dst, '/')
		dst = append(dst, p.sc.names[e.nameID].name...)
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(e.ordinal), 10)
		dst = append(dst, ']')
	}
	dst = append(dst, "/text()["...)
	dst = strconv.AppendInt(dst, int64(f.ordinal), 10)
	return append(dst, ']')
}

// AppendSignature appends the page's routing and clustering signature
// (StreamOptions.Signature must be set, and Attrs must hold "class"):
// sorted, duplicate-free views into the page arena of every element's
// key, its last three ancestor-or-self tags joined by '/' plus ".class"
// when it has a non-empty class attribute.
func (p *StreamPage) AppendSignature(dst [][]byte) [][]byte {
	base := len(dst)
	for i, off := range p.sigOff {
		dst = append(dst, p.sigArena[off:off+p.sigLen[i]])
	}
	keys := dst[base:]
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
	w := 0
	for i := range keys {
		if i == 0 || !bytes.Equal(keys[i], keys[w-1]) {
			keys[w] = keys[i]
			w++
		}
	}
	return dst[:base+w]
}

// --------------------------------------------------------- field driver

// StreamField is one text field surfaced by StreamFields. It aliases the
// pass's scratch: read what you need inside the callback and copy out
// anything that must survive it.
type StreamField struct {
	p   *StreamPage
	idx int
}

// Text returns the field's collapsed text.
func (f *StreamField) Text() []byte { return f.p.FieldText(f.idx) }

// Parent returns the field's containing element record.
func (f *StreamField) Parent() int32 { return f.p.FieldParent(f.idx) }

// AppendXPath appends the field's absolute XPath.
func (f *StreamField) AppendXPath(dst []byte) []byte {
	return f.p.AppendFieldXPath(dst, f.idx)
}

// Page returns the streaming records of the whole page, for structural
// context around the field.
func (f *StreamField) Page() *StreamPage { return f.p }

var streamScratchPool = sync.Pool{New: func() any { return NewStreamScratch() }}

// StreamFields lexes html in a single pass and invokes fn for every
// non-empty text field in document order, without materializing a DOM
// tree. The field (and the page reachable through it) is valid only
// during the callback. Serve paths that need custom options hold a
// StreamScratch and call Stream directly.
func StreamFields(html []byte, fn func(f *StreamField)) {
	sc := streamScratchPool.Get().(*StreamScratch)
	defer streamScratchPool.Put(sc)
	p := sc.Stream(html, StreamOptions{})
	f := StreamField{p: p}
	for i := 0; i < len(p.fields); i++ {
		f.idx = i
		fn(&f)
	}
}
