package core

import (
	"context"
	"slices"
	"sort"
	"unicode/utf8"

	"ceres/internal/dom"
	"ceres/internal/kb"
	"ceres/internal/obs/trace"
	"ceres/internal/par"
	"ceres/internal/strmatch"
)

// This file implements the compiled annotation path (DESIGN.md §6), the
// training-side mirror of the compiled serve path: distant supervision is
// the dominant offline cost, because Algorithms 1 and 2 match every DOM
// text field against the seed KB. The legacy path does that over string
// keys ("e:"+id / "lit:"+norm), per-page map page-sets, and a
// MatchesObject that re-normalizes the field and fuzzy-scans every alias
// per call. Here every matchable KB item is interned into a dense
// kb.ItemID once per KB (kb.Index), each field's normalized form / token
// key / rune decomposition is computed once per page into a kb.FieldKey,
// page sets become sorted ItemID slices merged in linear time, and both
// page-index construction and per-page annotation run on the par.For
// worker pool with per-worker scratch. Output is bit-identical to the
// legacy path — same topics, same scores, same annotations in the same
// order — which the differential tests assert over every DemoCorpus kind.

// annotScratch is the per-worker scratch of the indexed annotation path.
// Like ServeScratch, one scratch belongs to exactly one worker goroutine
// and must never be shared.
type annotScratch struct {
	tok   []byte      // AppendTokenSetKey buffer
	arena []kb.ItemID // per-page candidate arena
	offs  []int32     // field offsets into arena
	set   []kb.ItemID // page-set sort buffer
	paths map[string]int
}

// newScratches returns one lazily usable scratch per worker.
func newScratches(workers int) []*annotScratch {
	s := make([]*annotScratch, workers)
	for i := range s {
		s[i] = &annotScratch{}
	}
	return s
}

// ipageIndex is the indexed counterpart of pageIndex: per-field match keys
// and sorted candidate items, plus the sorted page set and its per-entity
// Jaccard scores (filled by topic identification).
type ipageIndex struct {
	// fields[i] is the precomputed match form of field i's text.
	fields []kb.FieldKey
	// lowInfo marks fields the topic stage ignores (§3.1.1); relation
	// annotation still matches them.
	lowInfo []bool
	// items[i] lists, sorted, the items field i may denote (exact and
	// token matches — the ItemID form of KB.MatchItems).
	items [][]kb.ItemID
	// pageSet is the sorted union of items over non-low-info fields.
	pageSet []kb.ItemID
	// scores[i] is the Jaccard score of pageSet[i] when it is a
	// non-frequent entity (filled during Algorithm 1 step 1).
	scores []float64
}

func buildPageIndexIndexed(p *Page, ix *kb.Index, s *annotScratch) *ipageIndex {
	nf := len(p.Fields)
	pi := &ipageIndex{
		fields:  make([]kb.FieldKey, nf),
		lowInfo: make([]bool, nf),
		items:   make([][]kb.ItemID, nf),
	}
	s.arena = s.arena[:0]
	s.offs = append(s.offs[:0], 0)
	runes := 0
	for fi, f := range p.Fields {
		key := kb.FieldKey{Norm: f.Norm}
		if len(key.Norm) > 0 {
			s.tok = strmatch.AppendTokenSetKey(s.tok[:0], key.Norm)
			if string(s.tok) == key.Norm {
				key.TokenKey = key.Norm
			} else {
				key.TokenKey = string(s.tok)
			}
			key.RuneLen = utf8.RuneCountInString(key.Norm)
			if key.RuneLen >= 8 {
				runes += key.RuneLen
			}
		}
		pi.fields[fi] = key
		pi.lowInfo[fi] = strmatch.IsLowInfoNormalized(key.Norm)
		s.arena = ix.AppendCandidates(s.arena, key)
		s.offs = append(s.offs, int32(len(s.arena)))
	}
	// The rune forms the edit distance reads, carved from one array.
	if runes > 0 {
		buf := make([]rune, 0, runes)
		for fi := range pi.fields {
			if key := &pi.fields[fi]; key.RuneLen >= 8 {
				at := len(buf)
				for _, r := range key.Norm {
					buf = append(buf, r)
				}
				key.Runes = buf[at:len(buf):len(buf)]
			}
		}
	}
	arena := make([]kb.ItemID, len(s.arena))
	copy(arena, s.arena)
	for fi := 0; fi < nf; fi++ {
		pi.items[fi] = arena[s.offs[fi]:s.offs[fi+1]]
	}

	s.set = s.set[:0]
	for fi := 0; fi < nf; fi++ {
		if !pi.lowInfo[fi] {
			s.set = append(s.set, pi.items[fi]...)
		}
	}
	slices.Sort(s.set)
	set := slices.Compact(s.set)
	pi.pageSet = make([]kb.ItemID, len(set))
	copy(pi.pageSet, set)
	return pi
}

// jaccardSorted computes J(a, b) of Equation 1 over sorted unique ItemID
// slices — the same intersection and union counts jaccardScore derives
// from its map sets, so the resulting float64 is bit-identical.
func jaccardSorted(a, b []kb.ItemID) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// noItem marks "no candidate" in ItemID slots.
const noItem = kb.ItemID(-1)

// identifyTopicsIndexed runs Algorithm 1 on the indexed path and returns
// both the topic assignments and the per-page indexes so Annotate can
// reuse them for Algorithm 2.
func identifyTopicsIndexed(ctx context.Context, pages []*Page, ix *kb.Index, opts TopicOptions, workers int) ([]TopicResult, []*ipageIndex, error) {
	opts = opts.withDefaults()
	if workers <= 0 {
		workers = defaultWorkers()
	}
	// Frequent-object filter: same threshold arithmetic as the legacy
	// FrequentObjectKeys so the cutoff is bit-identical.
	hasTriples := ix.NumTriples() > 0
	minCount := opts.frequentFrac(ix.NumTriples()) * float64(ix.NumTriples())
	frequent := func(it kb.ItemID) bool {
		return hasTriples && float64(ix.ObjectCount(it)) >= minCount
	}

	scratches := newScratches(workers)
	pidx := make([]*ipageIndex, len(pages))
	if err := par.For(ctx, len(pages), workers, func(w, i int) {
		pidx[i] = buildPageIndexIndexed(pages[i], ix, scratches[w])
	}); err != nil {
		return nil, nil, err
	}

	// Step 1: local best candidate per page, scoring every non-frequent
	// entity of the page set against its object set (Equation 1).
	localBest := make([]kb.ItemID, len(pages))
	if err := par.For(ctx, len(pages), workers, func(_, pi int) {
		idx := pidx[pi]
		idx.scores = make([]float64, len(idx.pageSet))
		best, bestScore := noItem, 0.0
		for si, it := range idx.pageSet {
			if !ix.IsEntity(it) {
				continue // literals cannot be subjects
			}
			if frequent(it) {
				continue // promiscuous strings are not topic candidates
			}
			s := jaccardSorted(idx.pageSet, ix.ObjectItems(it))
			idx.scores[si] = s
			if s > bestScore || (s == bestScore && s > 0 && (best < 0 || it < best)) {
				best, bestScore = it, s
			}
		}
		localBest[pi] = best
	}); err != nil {
		return nil, nil, err
	}

	// Step 2 (uniqueness): discard candidates claimed by too many pages.
	claims := map[kb.ItemID]int{}
	for _, it := range localBest {
		if it >= 0 {
			claims[it]++
		}
	}
	discarded := map[kb.ItemID]bool{}
	for it, n := range claims {
		if n >= opts.MaxTopicPages {
			discarded[it] = true
		}
	}

	// Step 3 (consistency): vote for the dominant topic XPath using the
	// surviving candidates' mention locations.
	pathCounts := map[string]int{}
	for pi, it := range localBest {
		if it < 0 || discarded[it] {
			continue
		}
		idx := pidx[pi]
		for fi := range pages[pi].Fields {
			if idx.lowInfo[fi] {
				continue
			}
			if _, ok := slices.BinarySearch(idx.items[fi], it); ok {
				pathCounts[pages[pi].Fields[fi].PathString]++
			}
		}
	}
	rankedPaths := rankedKeysByCount(pathCounts)

	// Step 4: per page, take the highest-ranked path that exists on the
	// page and pick the best-scoring entity mentioned in that field.
	out := make([]TopicResult, len(pages))
	if err := par.For(ctx, len(pages), workers, func(w, pi int) {
		out[pi] = TopicResult{FieldIdx: -1}
		p, idx, s := pages[pi], pidx[pi], scratches[w]
		if s.paths == nil {
			s.paths = make(map[string]int, len(p.Fields))
		}
		clear(s.paths)
		for fi, f := range p.Fields {
			s.paths[f.PathString] = fi
		}
		for _, path := range rankedPaths {
			fi, ok := s.paths[path]
			if !ok {
				continue
			}
			best, bestScore := noItem, 0.0
			if !idx.lowInfo[fi] {
				for _, it := range idx.items[fi] {
					if !ix.IsEntity(it) || frequent(it) || discarded[it] {
						continue
					}
					si, _ := slices.BinarySearch(idx.pageSet, it)
					sc := idx.scores[si]
					if sc > bestScore || (sc == bestScore && sc > 0 && (best < 0 || it < best)) {
						best, bestScore = it, sc
					}
				}
			}
			if best >= 0 {
				out[pi] = TopicResult{EntityID: ix.EntityID(best), FieldIdx: fi, Score: bestScore}
			}
			break // only the highest-ranked extant path is consulted
		}
	}); err != nil {
		return nil, nil, err
	}
	return out, pidx, nil
}

// iobjGroup is one (predicate, object, candidate mentions) group of one
// page — the ItemID form of objGroup.
type iobjGroup struct {
	pred   string
	obj    kb.ItemID
	fields []int
}

// Annotate runs the full annotation stage over a template cluster — topic
// identification (Algorithm 1), then relation annotation (Algorithm 2)
// with agglomerative XPath clustering as the global tie-breaker — through
// the indexed path: interned kb.ItemIDs, precomputed match keys, and the
// worker pool. workers is the pool's size (0 means the pipeline default):
// Algorithm 1 and the per-page phases of Algorithm 2 run on it; the
// cross-page aggregation between them stays sequential in page order, so
// output is deterministic, identical at any worker count and identical
// to AnnotateLegacy (the differential tests assert it over every demo
// corpus). A cancelled ctx stops it with ctx.Err().
func Annotate(ctx context.Context, pages []*Page, K *kb.KB, topts TopicOptions, ropts RelationOptions, workers int) (*AnnotationResult, error) {
	ropts = ropts.withDefaults()
	if workers <= 0 {
		workers = defaultWorkers()
	}
	ix := K.BuildIndex()
	// Topic identification (§3.1) is annotation's dominant stage; give it
	// its own child span under the caller's "annotate" span.
	tsp := trace.FromContext(ctx).StartChild("topics")
	topics, pidx, err := identifyTopicsIndexed(ctx, pages, ix, topts, workers)
	tsp.EndErr(err)
	if err != nil {
		return nil, err
	}

	// Candidate groups per page: for every deduplicated (predicate,
	// object) of the topic's triples, the fields mentioning the object.
	// Exact and token matches come from the page index; the fuzzy tail
	// runs through the precomputed alias keys.
	pageGroups := make([][]iobjGroup, len(pages))
	hasTopic := make([]bool, len(pages))
	if err := par.For(ctx, len(pages), workers, func(_, pi int) {
		if topics[pi].EntityID == "" {
			return
		}
		topic, ok := ix.EntityItem(topics[pi].EntityID)
		if !ok {
			return
		}
		rels := ix.Relations(topic)
		if len(rels) == 0 {
			return
		}
		hasTopic[pi] = true
		p, idx := pages[pi], pidx[pi]
		var groups []iobjGroup
		for _, r := range rels {
			var fields []int
			for fi := range p.Fields {
				if fi == topics[pi].FieldIdx {
					continue
				}
				if _, ok := slices.BinarySearch(idx.items[fi], r.Obj); ok {
					fields = append(fields, fi)
				} else if ix.Matches(idx.fields[fi], r.Obj) {
					fields = append(fields, fi)
				}
			}
			if len(fields) > 0 {
				groups = append(groups, iobjGroup{pred: r.Pred, obj: r.Obj, fields: fields})
			}
		}
		pageGroups[pi] = groups
	}); err != nil {
		return nil, err
	}

	// Cross-page aggregation, sequential in page order: mention-path
	// counts, per-predicate cluster count k, and the duplicated-object
	// page counts of §3.2.2 case 2.
	mentionPaths := map[string]map[string]int{}
	maxMentionsPerObj := map[string]int{}
	objPageCount := map[string]map[kb.ItemID]int{}
	pagesWithTopic := 0
	for pi, p := range pages {
		if hasTopic[pi] {
			pagesWithTopic++
		}
		for gi := range pageGroups[pi] {
			g := &pageGroups[pi][gi]
			if mentionPaths[g.pred] == nil {
				mentionPaths[g.pred] = map[string]int{}
				objPageCount[g.pred] = map[kb.ItemID]int{}
			}
			for _, fi := range g.fields {
				mentionPaths[g.pred][p.Fields[fi].PathString]++
			}
			if len(g.fields) > maxMentionsPerObj[g.pred] {
				maxMentionsPerObj[g.pred] = len(g.fields)
			}
			objPageCount[g.pred][g.obj]++
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Global evidence: cluster each predicate's mention paths.
	clusterSize := map[string]map[string]int{}
	if !ropts.DisableClustering {
		for pred, paths := range mentionPaths {
			clusterSize[pred] = clusterPredPaths(paths, maxMentionsPerObj[pred], ropts.MaxClusterPaths)
		}
	}

	// Per-page mention choice. Groups sort by (predicate, object); ItemID
	// order equals object-key string order, so the emission order matches
	// the legacy sortedKeys iteration exactly.
	perPage := make([][]Annotation, len(pages))
	// Local evidence reads only the element chains: no text, no attribute.
	streamers := newStreamers(workers, dom.StreamOptions{})
	if err := par.For(ctx, len(pages), workers, func(w, pi int) {
		groups := pageGroups[pi]
		if len(groups) == 0 {
			return
		}
		p := pages[pi]
		sort.Slice(groups, func(i, j int) bool {
			if groups[i].pred != groups[j].pred {
				return groups[i].pred < groups[j].pred
			}
			return groups[i].obj < groups[j].obj
		})
		var anns []Annotation
		for start := 0; start < len(groups); {
			end := start
			for end < len(groups) && groups[end].pred == groups[start].pred {
				end++
			}
			pred := groups[start].pred
			predFields := make([][]int, end-start)
			for i := start; i < end; i++ {
				predFields[i-start] = groups[i].fields
			}
			for i := start; i < end; i++ {
				g := &groups[i]
				if ropts.AnnotateAllMentions {
					for _, fi := range g.fields {
						anns = append(anns, Annotation{PageIdx: pi, FieldIdx: fi, Predicate: pred})
					}
					continue
				}
				forceCluster := pagesWithTopic > 0 &&
					float64(objPageCount[pred][g.obj]) > ropts.DuplicatedPageFrac*float64(pagesWithTopic)
				fi, ok := chooseMention(p, &streamers[w], g.fields, predFields, clusterSize[pred], forceCluster)
				if ok {
					anns = append(anns, Annotation{PageIdx: pi, FieldIdx: fi, Predicate: pred})
				}
			}
			start = end
		}
		perPage[pi] = anns
	}); err != nil {
		return nil, err
	}

	res := &AnnotationResult{Topics: topics, AnnotatedPages: make([]bool, len(pages))}
	for pi := range pages {
		if pageGroups[pi] == nil {
			continue
		}
		anns := perPage[pi]
		if len(anns) < ropts.MinAnnotations {
			continue // informativeness filter (§3.1.2 step 3)
		}
		res.AnnotatedPages[pi] = true
		res.Annotations = append(res.Annotations, Annotation{PageIdx: pi, FieldIdx: topics[pi].FieldIdx, Predicate: NameClass})
		res.Annotations = append(res.Annotations, anns...)
	}
	return res, nil
}
