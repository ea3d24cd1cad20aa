package core

import (
	"context"
	"slices"
	"time"

	"ceres/internal/cluster"
	"ceres/internal/dom"
	"ceres/internal/mlr"
)

// This file is the extraction engine (DESIGN.md §5): pages are extracted
// from raw bytes in a single tokenizer pass, with routing signature,
// featurization context and text fields all captured by
// dom.StreamScratch — the page representation training reads too. Output
// is bit-identical to ExtractPage, §4.3 as written, which lives in this
// package's test files (same extractions, confidences, order and XPath
// strings); serve_diff_test.go asserts it over every DemoCorpus kind.

// probeStr probes a compiled lookup table with a byte key. The
// []byte→string conversion is allocation-free under the map-probe special
// case, but the ceresvet allocfree analyzer flags any explicit
// conversion, so the probe lives in this unannotated helper.
func probeStr(m map[string]int32, key []byte) (int32, bool) {
	id, ok := m[string(key)]
	return id, ok
}

// emit appends the features an element with vocabulary IDs ids (tag, then
// structuralAttrs) has at this position.
//
//ceres:allocfree
func (t *structTable) emit(vb *mlr.VectorBuilder, ids []int32) {
	if f := featAt(t.tag, ids[0]); f >= 0 {
		vb.AddID(int(f))
	}
	for i := range t.attr {
		if v := ids[1+i]; v != 0 {
			if f := featAt(t.attr[i], v); f >= 0 {
				vb.AddID(int(f))
			}
		}
	}
}

// resolveKinds resolves every element of the page through the model's
// vocabulary, once: its tag and structural attribute values to vocabulary
// IDs (sc.elemIDs; absent, empty and unknown values alike are 0), and
// those to one number, the element's kind (sc.kind). An element the model
// knows only by tag is its tag ID; one with a known attribute value is
// interned in the current cache. These are the only string probes the
// structural half of scoring makes.
//
//ceres:allocfree
func (cf *CompiledFeaturizer) resolveKinds(sp *dom.StreamPage, sc *ServeScratch) {
	v := &cf.vocab
	clear(sc.elemIDs[:kindWidth]) // record 0, the document, is nothing
	sc.kind[0] = 0
	for e, n := int32(1), int32(sp.Elems()); e < n; e++ {
		ids := sc.elemIDs[int(e)*kindWidth : (int(e)+1)*kindWidth]
		ids[0] = 0
		if s := sp.TagSymOf(e); s > 0 {
			if int(s) < len(v.tagBySym) {
				ids[0] = v.tagBySym[s]
			}
		} else {
			ids[0] = v.tag[sp.Tag(e)]
		}
		tagOnly := true
		for i := range v.attr {
			ids[1+i] = 0
			if len(v.attr[i]) == 0 {
				continue
			}
			if val, ok := sp.AttrValue(e, i); ok && len(val) != 0 {
				if id, ok := probeStr(v.attr[i], val); ok {
					ids[1+i] = id
					tagOnly = false
				}
			}
		}
		if tagOnly {
			sc.kind[e] = ids[0]
		} else {
			sc.kind[e] = sc.cache.kindOf(ids)
		}
	}
}

// subTextID returns the lexicon ID of e's subtree text, 0 when it is not a
// lexicon string, resolving it on the page's first request.
//
//ceres:allocfree
func (cf *CompiledFeaturizer) subTextID(sp *dom.StreamPage, sc *ServeScratch, e int32) int32 {
	id := sc.subText[e]
	if id < 0 {
		id = 0
		// The stream bounds captured text by the site-wide maxText; the
		// bound check against this cluster's makes the probe exact.
		if txt, ok := sp.SubText(e, cf.maxText); ok && len(txt) != 0 {
			id, _ = probeStr(cf.vocab.text, txt)
		}
		sc.subText[e] = id
	}
	return id
}

// ownTextID is subTextID for e's direct text.
//
//ceres:allocfree
func (cf *CompiledFeaturizer) ownTextID(sp *dom.StreamPage, sc *ServeScratch, e int32) int32 {
	id := sc.ownText[e]
	if id < 0 {
		id = 0
		// !probeable means the own text is non-empty but longer than any
		// lexicon key: a probe would miss.
		if own, probeable := sp.OwnText(e); probeable && len(own) != 0 {
			id, _ = probeStr(cf.vocab.text, own)
		}
		sc.ownText[e] = id
	}
	return id
}

func (cf *CompiledFeaturizer) structuralAt(lvl int32) bool {
	return !cf.opts.DisableStructural && int(lvl) <= cf.opts.MaxAncestors
}

func (cf *CompiledFeaturizer) textAt(lvl int32) bool {
	return !cf.opts.DisableText && int(lvl) <= cf.opts.TextAncestors
}

// contextWidth is the most words a context tuple takes.
func (cf *CompiledFeaturizer) contextWidth() int { return 3*cf.opts.SiblingWindow + 5 }

// contextOf returns the ID of node's context at ancestor level lvl:
// everything the feature walk reads from that level upwards, interned. Two
// (node, level) pairs with the same ID — on one page or on two — emit the
// same features from that level up, because the tuple holds every
// vocabulary ID the walk looks at there and the context of the parent one
// level further up:
//
//	level, parent's context, lexicon ID of the own text (levels > 0),
//	number of preceding siblings inside the window,
//	kind of each sibling inside the window (the node's own among them),
//	lexicon ID of each of those preceding siblings' text, nearest first
//
// The kinds are there only at a level the structural walk reaches and the
// text IDs only at one the text walk reaches — the level says which — and
// a text position where the model has no string to match is left 0. A
// field directly under the document (node 0) has a context of its own,
// which emits nothing. IDs are memoized per page — the cells of a table
// row share their whole ancestor chain, and fields of one element share
// everything — and -1 means the cache is full and the context is not in
// it.
//
//ceres:allocfree
func (cf *CompiledFeaturizer) contextOf(sp *dom.StreamPage, sc *ServeScratch, node, lvl int32) int32 {
	memo := int(lvl)*sp.Elems() + int(node)
	if id := sc.ctxMemo[memo]; id != 0 {
		return id
	}
	// The parent first: it builds its own tuple in the same buffer.
	parent := int32(0)
	if node != 0 && int(lvl) < cf.levels {
		if p := sp.Parent(node); p != 0 {
			if parent = cf.contextOf(sp, sc, p, lvl+1); parent < 0 {
				sc.ctxMemo[memo] = -1
				return -1
			}
		}
	}
	key := sc.ctxKey[:4]
	key[0], key[1], key[2], key[3] = lvl, parent, 0, 0
	if node != 0 {
		w := cf.opts.SiblingWindow
		sibs := sp.ElemSiblings(node)
		pos := int(sp.ElemIndex(node))
		lo := max(pos-w, 0)
		key[3] = int32(pos - lo)
		if cf.structuralAt(lvl) {
			for _, e := range sibs[lo:min(pos+w+1, len(sibs))] {
				k := sc.kind[e]
				if k < 0 {
					sc.ctxMemo[memo] = -1
					return -1
				}
				key = append(key, k)
			}
		}
		if cf.textAt(lvl) {
			tables := cf.text[lvl]
			if lvl > 0 && len(tables[0]) != 0 {
				key[2] = cf.ownTextID(sp, sc, node)
			}
			for off := 1; off <= pos-lo; off++ {
				id := int32(0)
				if len(tables[off]) != 0 {
					id = cf.subTextID(sp, sc, sibs[pos-off])
				}
				key = append(key, id)
			}
		}
	}
	id := sc.cache.intern(&sc.cache.contexts, key, -1) // no row yet
	sc.ctxMemo[memo] = id
	return id
}

// appendStreamFeatures emits the feature IDs of a field whose containing
// element is elem — Featurizer.Features over streaming records: the same
// context walk (containing element, ancestors, sibling windows, bounded
// sibling-text probes) resolving the same features through the integer
// tables, in a different order, which the sorted vector does not keep.
// elem 0 — a field directly under the document — emits nothing, matching
// the training walk's immediate stop on a non-element parent. Only a
// context the cache has not seen pays for it.
//
//ceres:allocfree
func (cf *CompiledFeaturizer) appendStreamFeatures(vb *mlr.VectorBuilder, sp *dom.StreamPage, sc *ServeScratch, elem int32) {
	w := cf.opts.SiblingWindow
	node := elem
	for lvl := int32(0); node != 0 && int(lvl) <= cf.levels; lvl++ {
		sibs := sp.ElemSiblings(node)
		pos := int(sp.ElemIndex(node))
		if cf.structuralAt(lvl) {
			tables := cf.structural[lvl]
			for j, hi := max(pos-w, 0), min(pos+w, len(sibs)-1); j <= hi; j++ {
				e := int(sibs[j])
				tables[w+j-pos].emit(vb, sc.elemIDs[e*kindWidth:(e+1)*kindWidth])
			}
		}
		if cf.textAt(lvl) {
			tables := cf.text[lvl]
			for off := 1; off <= w && pos-off >= 0; off++ {
				if len(tables[off]) == 0 {
					continue // no string is a feature here; skip the text read
				}
				if f := featAt(tables[off], cf.subTextID(sp, sc, sibs[pos-off])); f >= 0 {
					vb.AddID(int(f))
				}
			}
			if lvl > 0 && len(tables[0]) != 0 {
				if f := featAt(tables[0], cf.ownTextID(sp, sc, node)); f >= 0 {
					vb.AddID(int(f))
				}
			}
		}
		node = sp.Parent(node)
	}
}

// scoreStreamFields scores every field of a streamed page into the flat
// proba matrix, returning the best name candidate — ExtractPage's scoring
// loop over records. A field whose context has a row in the cache copies
// it; any other runs the feature walk and the scorer, and the cache
// remembers the row if it has room. Rows are what the scorer produced for
// the context's first field, so output is bit-identical to always scoring.
//
//ceres:allocfree
func (cm *CompiledModel) scoreStreamFields(sp *dom.StreamPage, proba []float64, sc *ServeScratch) (int, float64) {
	K := cm.scorer.ClassCount()
	bestName, bestNameP := -1, 0.0
	nf := sp.Fields()
	sc.counts.fields += nf
	for fi := 0; fi < nf; fi++ {
		elem := sp.FieldParent(fi)
		pr := proba[fi*K : (fi+1)*K]
		ctx := cm.fz.contextOf(sp, sc, elem, 0)
		if row := sc.cache.row(ctx, K); row != nil {
			copy(pr, row)
		} else {
			sc.vb.Reset()
			cm.fz.appendStreamFeatures(&sc.vb, sp, sc, elem)
			cm.scorer.ProbaInto(sc.vb.Build(), pr)
			sc.counts.misses++
			if !sc.cache.store(ctx, pr) {
				sc.counts.uncached++
			}
		}
		if pr[cm.nameClass] > bestNameP {
			bestName, bestNameP = fi, pr[cm.nameClass]
		}
	}
	return bestName, bestNameP
}

// sizedInt32 returns s with length n, reallocating only to grow.
func sizedInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// beginPage readies the scratch for one streamed page under cm: the
// model's context cache, the per-element arrays (kinds resolved, text IDs
// and context memo blank) and the page's fields×classes probability
// matrix, which it returns.
func (sc *ServeScratch) beginPage(sp *dom.StreamPage, cm *CompiledModel) []float64 {
	need := sp.Fields() * cm.scorer.ClassCount()
	if cap(sc.proba) < need {
		sc.proba = make([]float64, need)
	}
	sc.cache = sc.cacheFor(cm)
	ne := sp.Elems()
	sc.elemIDs = sizedInt32(sc.elemIDs, ne*kindWidth)
	sc.kind = sizedInt32(sc.kind, ne)
	sc.subText = sizedInt32(sc.subText, ne)
	sc.ownText = sizedInt32(sc.ownText, ne)
	for i := range sc.subText {
		sc.subText[i], sc.ownText[i] = -1, -1
	}
	sc.ctxMemo = sizedInt32(sc.ctxMemo, (cm.fz.levels+1)*ne)
	clear(sc.ctxMemo)
	sc.ctxKey = sizedInt32(sc.ctxKey, cm.fz.contextWidth())[:0]
	cm.fz.resolveKinds(sp, sc)
	return sc.proba[:need]
}

// ExtractStreamPage applies the compiled model to a streamed page, with
// the output §4.3 as written (the reference in this package's test files)
// gives for the prepared page.
// Subject, value and path strings materialize only for emitted
// extractions; a page that yields nothing allocates nothing.
func (cm *CompiledModel) ExtractStreamPage(sp *dom.StreamPage, pageID string, opts ExtractOptions, sc *ServeScratch) []Extraction {
	opts = opts.withDefaults()
	if cm.nameClass == OtherClass {
		return nil // no name class was learned; no subjects identifiable
	}
	K := cm.scorer.ClassCount()
	nf := sp.Fields()
	proba := sc.beginPage(sp, cm)
	bestName, bestNameP := cm.scoreStreamFields(sp, proba, sc)
	if bestName < 0 || bestNameP < opts.NameThreshold {
		return nil // §4.3: extraction requires an identified name node
	}
	// Two passes over the cached probabilities: count survivors, then emit
	// into an exactly sized slice. argmax over K classes is cheap next to
	// the slice-growth copying a blind append pays.
	n := 0
	for fi := 0; fi < nf; fi++ {
		if fi == bestName {
			continue
		}
		if cls, _ := argmax(proba[fi*K : (fi+1)*K]); cls != OtherClass && cls != cm.nameClass {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	subject := string(sp.FieldText(bestName))
	out := make([]Extraction, 0, n)
	for fi := 0; fi < nf; fi++ {
		if fi == bestName {
			continue
		}
		cls, prob := argmax(proba[fi*K : (fi+1)*K])
		if cls == OtherClass || cls == cm.nameClass {
			continue
		}
		sc.xpathBuf = sp.AppendFieldXPath(sc.xpathBuf[:0], fi)
		out = append(out, Extraction{
			PageID:     pageID,
			Subject:    subject,
			Predicate:  cm.classes.Name(cls),
			Value:      string(sp.FieldText(fi)),
			Confidence: prob,
			Path:       string(sc.xpathBuf),
		})
	}
	return out
}

// extractBytes streams, routes and extracts one page from raw bytes; the
// caller must have passed serveable. Single-cluster sites skip routing,
// like Route; otherwise the signature accumulated during the pass is
// matched against the exemplars. Each stage's time is added to the
// scratch's stage times.
func (sm *SiteModel) extractBytes(id string, html []byte, sc *ServeScratch) (int, []Extraction) {
	if sc.stream == nil {
		sc.stream = dom.NewStreamScratch()
	}
	start := time.Now()
	multi := len(sm.Clusters) > 1
	sp := sc.stream.Stream(html, dom.StreamOptions{
		MaxText:   sm.maxText,
		Attrs:     structuralAttrs[:],
		Signature: multi,
	})
	parsed := time.Now()
	sc.stages.Parse += parsed.Sub(start)
	ci := 0
	if multi {
		sc.sig = sp.AppendSignature(sc.sig[:0])
		ci, _ = cluster.RouteSortedBytes(sc.sig, sm.exemplars())
	}
	routed := time.Now()
	sc.stages.Route += routed.Sub(parsed)
	if ci < 0 || !sm.Clusters[ci].Trained {
		return ci, nil
	}
	exts := sm.compiled[ci].ExtractStreamPage(sp, id, sm.Extract, sc)
	sc.stages.Score += time.Since(routed)
	return ci, exts
}

// ExtractScanOpts extracts pages delivered as raw bytes by a scan
// function — the zero-copy entry point for pagestore-backed serving. scan
// must call yield once per page and stop on its error; id and html are
// only read during the yield. The scan loop is sequential — a yielded
// slice is only valid during its yield — so Workers is ignored here;
// callers holding all their pages at once get page parallelism from
// ExtractBytesOpts. The scratch keeps only this model's context caches:
// a scan is one site's pages, and the caches of the sites the scratch
// served before are dropped and counted in CacheEvictions.
func (sm *SiteModel) ExtractScanOpts(ctx context.Context, opts ServeOptions, scan func(yield func(id string, html []byte) error) error) ([]Extraction, *ServeStats, error) {
	if err := sm.serveable(); err != nil {
		return nil, nil, err
	}
	sc := getServeScratch()
	defer putServeScratch(sc)
	return sm.extractScan(ctx, sc, scan)
}

// extractScan is ExtractScanOpts on the scratch sc, whose counters the
// returned statistics report.
func (sm *SiteModel) extractScan(ctx context.Context, sc *ServeScratch, scan func(yield func(id string, html []byte) error) error) ([]Extraction, *ServeStats, error) {
	sc.keepOnly(sm.compiled)
	// The page count is not known before the scan; an empty one is
	// ErrNoPages below.
	stats := &ServeStats{ClusterPages: make([]int, len(sm.Clusters))}
	// Each page's extractions are kept as they come and concatenated
	// once, at the exact size, instead of growing one slice page by page.
	var pages [][]Extraction
	err := scan(func(id string, html []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		route, exts := sm.extractBytes(id, html, sc)
		stats.Pages++
		stats.addRoute(route)
		stats.observePage(sm.routeMiss(route), len(exts))
		stats.Extractions += len(exts)
		if len(exts) > 0 {
			pages = append(pages, exts)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if stats.Pages == 0 {
		return nil, nil, ErrNoPages
	}
	stats.addContexts(sc)
	return slices.Concat(pages...), stats, nil
}
