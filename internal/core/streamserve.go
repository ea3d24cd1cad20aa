package core

import (
	"context"

	"ceres/internal/cluster"
	"ceres/internal/dom"
	"ceres/internal/mlr"
)

// This file is the production extraction engine (DESIGN.md §5): pages are
// extracted from raw bytes in a single tokenizer pass, with routing
// signature, featurization context and text fields all captured by
// dom.StreamScratch — no DOM tree is ever built. Output is bit-identical
// to the paper-literal ExtractPage (same extractions, confidences, order
// and XPath strings); the root-package differential tests assert it over
// every DemoCorpus kind. Training and annotation keep the materialized
// tree: they need random access, node identity and render support that a
// single forward pass cannot give.

// probeStr probes a compiled lookup table with a byte key. The
// []byte→string conversion is allocation-free under the map-probe special
// case, but the ceresvet allocfree analyzer flags any explicit
// conversion, so the probe lives in this unannotated helper.
func probeStr(m map[string]int32, key []byte) (int32, bool) {
	id, ok := m[string(key)]
	return id, ok
}

// emitStream appends the IDs of element e's structural features at this
// position: symbol array first, tag-map fallback only for unsymbolized
// tags, then the attribute tables in structuralAttrs order (the stream is
// always built with Attrs = structuralAttrs, so table index i and stream
// attribute index i name the same key).
//
//ceres:allocfree
func (t *structTable) emitStream(sp *dom.StreamPage, e int32, vb *mlr.VectorBuilder) {
	if s := sp.TagSymOf(e); s > 0 {
		if int(s) < len(t.tagBySym) {
			if id := t.tagBySym[s]; id >= 0 {
				vb.AddID(int(id))
			}
		}
	} else if id, ok := t.tag[sp.Tag(e)]; ok {
		vb.AddID(int(id))
	}
	for i, m := range t.attr {
		if m == nil {
			continue
		}
		if v, ok := sp.AttrValue(e, i); ok && len(v) != 0 {
			if id, ok := probeStr(m, v); ok {
				vb.AddID(int(id))
			}
		}
	}
}

// appendStreamFeatures emits the feature IDs of a field whose containing
// element is elem — Featurizer.Features over streaming records: the same
// context walk (containing element, ancestors, sibling windows, bounded
// sibling-text probes) resolving the same features through the integer
// tables. elem 0 — a field directly under the document — emits nothing,
// matching the training walk's immediate stop on a non-element parent.
//
// The walk splits at level 0: everything above the containing element
// depends only on (ancestor, level) pairs, which upperSpan memoizes per
// page and replays — cells of one table row share their entire ancestor
// walk, and rows share everything from the table up. Replay changes
// only the emission ORDER relative to the one-loop walk; the multiset
// is identical, and scoring coalesces over the sorted vector, so output
// is unchanged.
//
//ceres:allocfree
func (cf *CompiledFeaturizer) appendStreamFeatures(vb *mlr.VectorBuilder, sp *dom.StreamPage, elem int32, sc *ServeScratch) {
	if elem == 0 {
		return
	}
	w := cf.opts.SiblingWindow
	if !cf.opts.DisableStructural {
		tables := cf.structural[0]
		tables[w].emitStream(sp, elem, vb)
		sibs := sp.ElemSiblings(elem)
		pos := int(sp.ElemIndex(elem))
		for off := 1; off <= w; off++ {
			if pos-off >= 0 {
				tables[w-off].emitStream(sp, sibs[pos-off], vb)
			}
			if pos+off < len(sibs) {
				tables[w+off].emitStream(sp, sibs[pos+off], vb)
			}
		}
	}
	if !cf.opts.DisableText && cf.opts.TextAncestors >= 0 {
		tables := cf.text[0]
		sibs := sp.ElemSiblings(elem)
		pos := int(sp.ElemIndex(elem))
		for off := 1; off <= w; off++ {
			if pos-off < 0 {
				break
			}
			tbl := tables[off]
			if len(tbl) == 0 {
				continue // no key can match; skip the text read
			}
			// The stream bounds captured text by the global (cross-
			// cluster) maxText; the per-cluster bound check on the
			// stored length makes the probe exact.
			if txt, ok := sp.SubText(sibs[pos-off], cf.maxText); ok {
				if id, hit := probeStr(tbl, txt); hit {
					vb.AddID(int(id))
				}
			}
		}
	}
	off, end := cf.upperSpan(sp, sc, sp.Parent(elem), 1)
	for _, id := range sc.upperIDs[off:end] {
		vb.AddID(int(id))
	}
}

// upperMax is the deepest ancestor level either walk visits.
func (cf *CompiledFeaturizer) upperMax() int {
	m := 0
	if !cf.opts.DisableStructural {
		m = cf.opts.MaxAncestors
	}
	if !cf.opts.DisableText && cf.opts.TextAncestors > m {
		m = cf.opts.TextAncestors
	}
	return m
}

// upperSpan returns the arena span of feature IDs the walk emits for
// node at ancestor level lvl plus everything above it, memoized per
// (node, lvl) for the page. The span is its own level's emissions
// followed by a copy of the parent span, so replay is a single run.
// Every feature is a binary AddID, which replay relies on.
//
//ceres:allocfree
func (cf *CompiledFeaturizer) upperSpan(sp *dom.StreamPage, sc *ServeScratch, node, lvl int32) (int32, int32) {
	if node == 0 || int(lvl) > cf.upperMax() {
		return 0, 0
	}
	k := (int(lvl)-1)*sc.upStride + int(node)
	if sc.upEpoch[k] == sc.upEpochCur {
		return sc.upOff[k], sc.upEnd[k]
	}
	po, pe := cf.upperSpan(sp, sc, sp.Parent(node), lvl+1)
	sc.upVB.Reset()
	cf.emitUpperLevel(&sc.upVB, sp, node, lvl)
	off := int32(len(sc.upperIDs))
	for _, f := range sc.upVB.Raw() {
		sc.upperIDs = append(sc.upperIDs, int32(f.Index))
	}
	sc.upperIDs = append(sc.upperIDs, sc.upperIDs[po:pe]...)
	end := int32(len(sc.upperIDs))
	sc.upEpoch[k] = sc.upEpochCur
	sc.upOff[k] = off
	sc.upEnd[k] = end
	return off, end
}

// emitUpperLevel emits one ancestor level of both walks for node: the
// structural tables of the level over node and its sibling window, then
// the level's text probes (preceding-sibling text and own text).
//
//ceres:allocfree
func (cf *CompiledFeaturizer) emitUpperLevel(vb *mlr.VectorBuilder, sp *dom.StreamPage, node, lvl int32) {
	w := cf.opts.SiblingWindow
	if !cf.opts.DisableStructural && int(lvl) <= cf.opts.MaxAncestors {
		tables := cf.structural[lvl]
		tables[w].emitStream(sp, node, vb)
		sibs := sp.ElemSiblings(node)
		pos := int(sp.ElemIndex(node))
		for off := 1; off <= w; off++ {
			if pos-off >= 0 {
				tables[w-off].emitStream(sp, sibs[pos-off], vb)
			}
			if pos+off < len(sibs) {
				tables[w+off].emitStream(sp, sibs[pos+off], vb)
			}
		}
	}
	if !cf.opts.DisableText && int(lvl) <= cf.opts.TextAncestors {
		tables := cf.text[lvl]
		sibs := sp.ElemSiblings(node)
		pos := int(sp.ElemIndex(node))
		for off := 1; off <= w; off++ {
			if pos-off < 0 {
				break
			}
			tbl := tables[off]
			if len(tbl) == 0 {
				continue
			}
			if txt, ok := sp.SubText(sibs[pos-off], cf.maxText); ok {
				if id, hit := probeStr(tbl, txt); hit {
					vb.AddID(int(id))
				}
			}
		}
		if tbl := tables[0]; len(tbl) > 0 {
			// !probeable means the own text is non-empty but longer
			// than any lexicon key: a probe would miss, so skipping it
			// is equivalent.
			if own, probeable := sp.OwnText(node); probeable && len(own) != 0 {
				if id, ok := probeStr(tbl, own); ok {
					vb.AddID(int(id))
				}
			}
		}
	}
}

// scoreStreamFields scores every field of a streamed page into the flat
// proba matrix, returning the best name candidate — ExtractPage's scoring
// loop over records, plus a per-parent memo: fields sharing a containing
// element have identical feature vectors (features depend only on the
// element context), so repeat parents copy the cached row instead of
// re-featurizing. memo maps element record → first scored field, -1 for
// none.
//
//ceres:allocfree
func (cm *CompiledModel) scoreStreamFields(sp *dom.StreamPage, proba []float64, memo []int32, sc *ServeScratch) (int, float64) {
	K := cm.scorer.ClassCount()
	bestName, bestNameP := -1, 0.0
	nf := sp.Fields()
	for fi := 0; fi < nf; fi++ {
		parent := sp.FieldParent(fi)
		pr := proba[fi*K : (fi+1)*K]
		if m := memo[parent]; m >= 0 {
			copy(pr, proba[int(m)*K:(int(m)+1)*K])
		} else {
			sc.vb.Reset()
			cm.fz.appendStreamFeatures(&sc.vb, sp, parent, sc)
			cm.probaCacheScore(sc, pr)
			memo[parent] = int32(fi)
		}
		if pr[cm.nameClass] > bestNameP {
			bestName, bestNameP = fi, pr[cm.nameClass]
		}
	}
	return bestName, bestNameP
}

// probCacheLimit bounds the distinct structural contexts one scratch
// caches per model, and probCacheModels bounds how many models a scratch
// holds caches for. Template sites repeat a few hundred contexts across
// every page; the caps only exist so a pathological site (or a process
// cycling through many model versions) cannot grow the pooled scratch
// without bound.
const (
	probCacheLimit  = 1 << 13
	probCacheModels = 8
)

// probaCacheScore computes the class probabilities of the builder's
// accumulated features into pr, consulting the scratch's cross-page
// cache first. The cache key is the raw emission sequence: the feature
// walk is deterministic per structural context, so an identical sequence
// implies an identical coalesced vector and — the scorer being a pure
// function — identical probabilities. Repeat contexts (template pages
// share almost all of them) skip the sort/coalesce and the scorer; a
// miss scores normally and caches the row. Output is bit-identical to
// always scoring.
func (cm *CompiledModel) probaCacheScore(sc *ServeScratch, pr []float64) {
	c := sc.caches[cm]
	if c == nil {
		if sc.caches == nil || len(sc.caches) >= probCacheModels {
			// A scratch cycling through more models than the cap is
			// either a model-churn workload (stale entries would leak)
			// or pathological; restart with just the current one.
			sc.caches = make(map[*CompiledModel]*probCache, probCacheModels)
		}
		c = &probCache{idx: make(map[string]int32, 256)}
		sc.caches[cm] = c
	}
	key, ok := appendFeatureSeqKey(sc.cacheKey[:0], sc.vb.Raw())
	sc.cacheKey = key
	if !ok {
		cm.scorer.ProbaInto(sc.vb.Build(), pr)
		return
	}
	if row, hit := c.idx[string(key)]; hit {
		K := len(pr)
		copy(pr, c.probs[int(row)*K:(int(row)+1)*K])
		return
	}
	cm.scorer.ProbaInto(sc.vb.Build(), pr)
	if len(c.idx) < probCacheLimit {
		c.idx[string(key)] = int32(len(c.probs) / len(pr))
		c.probs = append(c.probs, pr...)
	}
}

// appendFeatureSeqKey encodes a raw feature sequence as a cache key:
// four little-endian bytes per binary feature. Sequences with non-unit
// values or out-of-range indices are not keyable (no serve featurizer
// emits them) and report false.
func appendFeatureSeqKey(dst []byte, feats []mlr.Feature) ([]byte, bool) {
	for _, f := range feats {
		idx := uint64(f.Index)
		if f.Value != 1 || idx > 1<<31-1 {
			return dst[:0], false
		}
		dst = append(dst, byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24))
	}
	return dst, true
}

// beginPage sizes the scratch for one streamed page under cm and starts a
// new upper-walk memo epoch. It returns the page's fields×classes
// probability matrix and the per-element first-scored-field memo, reset.
func (sc *ServeScratch) beginPage(sp *dom.StreamPage, cm *CompiledModel) (proba []float64, memo []int32) {
	K := cm.scorer.ClassCount()
	nf := sp.Fields()
	if need := nf * K; cap(sc.proba) < need {
		sc.proba = make([]float64, need)
	}
	ne := sp.Elems()
	if cap(sc.memoRow) < ne {
		sc.memoRow = make([]int32, ne)
	}
	memo = sc.memoRow[:ne]
	for i := range memo {
		memo[i] = -1
	}
	if need := cm.fz.upperMax() * ne; cap(sc.upEpoch) < need {
		sc.upEpoch = make([]int32, need)
		sc.upOff = make([]int32, need)
		sc.upEnd = make([]int32, need)
		sc.upEpochCur = 0
	} else {
		sc.upEpoch = sc.upEpoch[:need]
		sc.upOff = sc.upOff[:need]
		sc.upEnd = sc.upEnd[:need]
	}
	sc.upStride = ne
	sc.upEpochCur++
	sc.upperIDs = sc.upperIDs[:0]
	return sc.proba[:nf*K], memo
}

// ExtractStreamPage applies the compiled model to a streamed page, with
// the output of the paper-literal ExtractPage over the parsed page.
// Subject, value and path strings materialize only for emitted
// extractions; a page that yields nothing allocates nothing.
func (cm *CompiledModel) ExtractStreamPage(sp *dom.StreamPage, pageID string, opts ExtractOptions, sc *ServeScratch) []Extraction {
	opts = opts.withDefaults()
	if cm.nameClass == OtherClass {
		return nil // no name class was learned; no subjects identifiable
	}
	K := cm.scorer.ClassCount()
	nf := sp.Fields()
	proba, memo := sc.beginPage(sp, cm)
	bestName, bestNameP := cm.scoreStreamFields(sp, proba, memo, sc)
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
	sc.xpathBuf = sp.AppendFieldXPath(sc.xpathBuf[:0], bestName)
	subjectPath := string(sc.xpathBuf)
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
			PageID:      pageID,
			Subject:     subject,
			Predicate:   cm.classes.Name(cls),
			Value:       string(sp.FieldText(fi)),
			Confidence:  prob,
			Path:        string(sc.xpathBuf),
			SubjectPath: subjectPath,
		})
	}
	return out
}

// extractBytes streams, routes and extracts one page from raw bytes; the
// caller must have passed serveable. Single-cluster sites skip routing,
// like Route; otherwise the signature accumulated during the pass is
// matched against the exemplars.
func (sm *SiteModel) extractBytes(id string, html []byte, sc *ServeScratch, st *StageTimes) (int, []Extraction) {
	if sc.stream == nil {
		sc.stream = dom.NewStreamScratch()
	}
	ck := startStageClock(st)
	multi := len(sm.Clusters) > 1
	sp := sc.stream.Stream(html, dom.StreamOptions{
		MaxText:   sm.maxText,
		Attrs:     structuralAttrs,
		Signature: multi,
	})
	ck.tick(stageParse)
	ci := 0
	if multi {
		sc.sig = sp.AppendSignature(sc.sig[:0])
		ci, _ = cluster.RouteSortedBytes(sc.sig, sm.exemplars())
	}
	ck.tick(stageRoute)
	if ci < 0 || !sm.Clusters[ci].Trained {
		return ci, nil
	}
	exts := sm.compiled[ci].ExtractStreamPage(sp, id, sm.Extract, sc)
	ck.tick(stageScore)
	return ci, exts
}

// ExtractScan extracts pages delivered as raw bytes by a scan function —
// the zero-copy entry point for pagestore-backed serving. scan must call
// yield once per page and stop on its error; id and html are only read
// during the yield.
func (sm *SiteModel) ExtractScan(ctx context.Context, scan func(yield func(id string, html []byte) error) error) ([]Extraction, *ServeStats, error) {
	return sm.ExtractScanOpts(ctx, ServeOptions{}, scan)
}

// ExtractScanOpts is ExtractScan with per-call overrides. The scan loop
// is sequential — a yielded slice is only valid during its yield — so
// Workers is ignored here; callers holding all their pages at once get
// page parallelism from ExtractBytesOpts. Stages is honored.
func (sm *SiteModel) ExtractScanOpts(ctx context.Context, opts ServeOptions, scan func(yield func(id string, html []byte) error) error) ([]Extraction, *ServeStats, error) {
	if sm == nil || sm.TrainedClusters() == 0 {
		return nil, nil, ErrNotTrained
	}
	if err := sm.compile(); err != nil {
		return nil, nil, err
	}
	sc := serveScratchPool.Get().(*ServeScratch)
	defer serveScratchPool.Put(sc)
	stats := &ServeStats{ClusterPages: make([]int, len(sm.Clusters))}
	var out []Extraction
	err := scan(func(id string, html []byte) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		route, exts := sm.extractBytes(id, html, sc, opts.Stages)
		stats.Pages++
		stats.addRoute(route)
		stats.observePage(sm.routeMiss(route), len(exts))
		stats.Extractions += len(exts)
		out = append(out, exts...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if stats.Pages == 0 {
		return nil, nil, ErrNoPages
	}
	return out, stats, nil
}
