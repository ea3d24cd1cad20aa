package core

// The string-keyed annotation stage (Algorithms 1 and 2 as first
// written): per-call normalization, "e:"/"lit:" item keys, map page sets,
// sequential pages. It is the reference the indexed path the pipeline
// runs (annotate_indexed.go) is differentially tested against.

import (
	"ceres/internal/kb"
	"ceres/internal/kb/kbtest"
	"ceres/internal/strmatch"
)

// pageIndex holds the per-page precomputation topic identification and
// relation annotation share: which KB items each field may denote.
type pageIndex struct {
	page *Page
	// items maps field index -> item keys ("e:<id>" / "lit:<norm>").
	items [][]string
	// pageSet is the union of items, the Algorithm 1 pageSet.
	pageSet map[string]bool
	// mentionsOf maps an item key to the fields mentioning it.
	mentionsOf map[string][]int
}

func buildPageIndex(p *Page, L *kbtest.Lookups) *pageIndex {
	pi := &pageIndex{
		page:       p,
		items:      make([][]string, len(p.Fields)),
		pageSet:    map[string]bool{},
		mentionsOf: map[string][]int{},
	}
	for i, f := range p.Fields {
		if strmatch.IsLowInfoNormalized(strmatch.Normalize(f.Text)) {
			continue
		}
		items := L.MatchItems(f.Text)
		for _, it := range items {
			pi.pageSet[it] = true
			pi.mentionsOf[it] = append(pi.mentionsOf[it], i)
		}
		pi.items[i] = items
	}
	return pi
}

// jaccardScore computes J(pageSet, entitySet) of Equation 1.
func jaccardScore(pageSet map[string]bool, entitySet map[string]bool) float64 {
	if len(pageSet) == 0 || len(entitySet) == 0 {
		return 0
	}
	small, large := pageSet, entitySet
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	union := len(pageSet) + len(entitySet) - inter
	return float64(inter) / float64(union)
}

// IdentifyTopicsLegacy is the original string-keyed Algorithm 1: per-call
// normalization, map page-sets, lazily scored candidates. It is the
// reference implementation the indexed path is differentially tested
// against; the pipeline never calls it.
func IdentifyTopicsLegacy(pages []*Page, K *kb.KB, opts TopicOptions) []TopicResult {
	return identifyTopicsLegacy(pages, kbtest.New(K), K.NumTriples(), opts)
}

func identifyTopicsLegacy(pages []*Page, L *kbtest.Lookups, numTriples int, opts TopicOptions) []TopicResult {
	opts = opts.withDefaults()
	frequent := L.FrequentObjectKeys(opts.frequentFrac(numTriples))

	idx := make([]*pageIndex, len(pages))
	for i, p := range pages {
		idx[i] = buildPageIndex(p, L)
	}

	// Per-page candidate scores, computed lazily per entity.
	scores := make([]map[string]float64, len(pages))
	entitySets := map[string]map[string]bool{}
	entitySet := func(id string) map[string]bool {
		s, ok := entitySets[id]
		if !ok {
			s = L.ObjectKeys(id)
			entitySets[id] = s
		}
		return s
	}
	scoreEntity := func(pi int, entityID string) float64 {
		if s, ok := scores[pi][entityID]; ok {
			return s
		}
		s := jaccardScore(idx[pi].pageSet, entitySet(entityID))
		if scores[pi] == nil {
			scores[pi] = map[string]float64{}
		}
		scores[pi][entityID] = s
		return s
	}

	// Step 1: local best candidate per page.
	localBest := make([]string, len(pages))
	for pi := range pages {
		best, bestScore := "", 0.0
		for _, item := range sortedKeys(idx[pi].pageSet) {
			if len(item) < 2 || item[:2] != "e:" {
				continue // literals cannot be subjects
			}
			if frequent[item] {
				continue // promiscuous strings are not topic candidates
			}
			id := item[2:]
			s := scoreEntity(pi, id)
			if s > bestScore || (s == bestScore && s > 0 && (best == "" || id < best)) {
				best, bestScore = id, s
			}
		}
		localBest[pi] = best
	}

	// Step 2 (uniqueness): discard candidates claimed by too many pages.
	claims := map[string]int{}
	for _, id := range localBest {
		if id != "" {
			claims[id]++
		}
	}
	discarded := map[string]bool{}
	for id, n := range claims {
		if n >= opts.MaxTopicPages {
			discarded[id] = true
		}
	}

	// Step 3 (consistency): vote for the dominant topic XPath using the
	// surviving candidates' mention locations.
	pathCounts := map[string]int{}
	for pi, id := range localBest {
		if id == "" || discarded[id] {
			continue
		}
		for _, fi := range idx[pi].mentionsOf["e:"+id] {
			pathCounts[pages[pi].Fields[fi].PathString]++
		}
	}
	rankedPaths := rankedKeysByCount(pathCounts)

	// Step 4: per page, take the highest-ranked path that exists on the
	// page and pick the best-scoring entity mentioned in that field.
	out := make([]TopicResult, len(pages))
	for pi, p := range pages {
		out[pi] = TopicResult{FieldIdx: -1}
		fieldByPath := map[string]int{}
		for fi, f := range p.Fields {
			fieldByPath[f.PathString] = fi
		}
		for _, path := range rankedPaths {
			fi, ok := fieldByPath[path]
			if !ok {
				continue
			}
			best, bestScore := "", 0.0
			for _, item := range idx[pi].items[fi] {
				if len(item) < 2 || item[:2] != "e:" || frequent[item] {
					continue
				}
				id := item[2:]
				if discarded[id] {
					continue
				}
				s := scoreEntity(pi, id)
				if s > bestScore || (s == bestScore && s > 0 && (best == "" || id < best)) {
					best, bestScore = id, s
				}
			}
			if best != "" {
				out[pi] = TopicResult{EntityID: best, FieldIdx: fi, Score: bestScore}
			}
			break // only the highest-ranked extant path is consulted
		}
	}
	return out
}

// objGroup collects the candidate mentions of one object for one
// predicate on one page.
type objGroup struct {
	fields []int
}

// AnnotateLegacy is the original string-keyed annotation stage: object
// keys as "e:"/"lit:" strings, per-call normalization in MatchesObject,
// sequential pages. It is the reference implementation the indexed path
// is differentially tested against; the pipeline never calls it.
func AnnotateLegacy(pages []*Page, K *kb.KB, topts TopicOptions, ropts RelationOptions) *AnnotationResult {
	ropts = ropts.withDefaults()
	L := kbtest.New(K)
	topics := identifyTopicsLegacy(pages, L, K.NumTriples(), topts)

	// groups[pageIdx][pred][objKey] lists the fields mentioning that
	// object of that predicate.
	groups := map[int]map[string]map[string]*objGroup{}
	// mentionPaths[pred][path] counts mentions at that path site-wide.
	mentionPaths := map[string]map[string]int{}
	// maxMentionsPerObj[pred] is Algorithm 2's cluster count k: the
	// maximum number of mentions of a single object on one page.
	maxMentionsPerObj := map[string]int{}
	// objPageCount[pred][objKey] counts pages where the object is a
	// candidate value of the predicate (the >half-of-pages rule).
	objPageCount := map[string]map[string]int{}
	pagesWithTopic := 0

	for pi, p := range pages {
		if topics[pi].EntityID == "" {
			continue
		}
		triples := L.TriplesOf(topics[pi].EntityID)
		if len(triples) == 0 {
			continue
		}
		pagesWithTopic++
		pg := map[string]map[string]*objGroup{}
		for _, t := range triples {
			// Unlike topic identification, relation annotation does not
			// apply the low-information filter: short numerals (episode
			// numbers, heights) are legitimate objects, and Algorithm 2's
			// local/global evidence disambiguates their many mentions.
			if !t.Object.IsEntity() && strmatch.Normalize(t.Object.Literal) == "" {
				continue
			}
			key := t.Object.Key()
			if pg[t.Predicate] != nil && pg[t.Predicate][key] != nil {
				continue // duplicate triple
			}
			var fields []int
			for fi, f := range p.Fields {
				if fi == topics[pi].FieldIdx {
					continue
				}
				if L.MatchesObject(f.Text, t.Object) {
					fields = append(fields, fi)
				}
			}
			if len(fields) == 0 {
				continue
			}
			if pg[t.Predicate] == nil {
				pg[t.Predicate] = map[string]*objGroup{}
			}
			pg[t.Predicate][key] = &objGroup{fields: fields}
			if mentionPaths[t.Predicate] == nil {
				mentionPaths[t.Predicate] = map[string]int{}
				objPageCount[t.Predicate] = map[string]int{}
			}
			for _, fi := range fields {
				mentionPaths[t.Predicate][p.Fields[fi].PathString]++
			}
			if len(fields) > maxMentionsPerObj[t.Predicate] {
				maxMentionsPerObj[t.Predicate] = len(fields)
			}
			objPageCount[t.Predicate][key]++
		}
		if len(pg) > 0 {
			groups[pi] = pg
		}
	}

	// Global evidence: cluster each predicate's mention paths.
	// clusterSize[pred][path] is the weighted size of the cluster the
	// path fell into.
	clusterSize := map[string]map[string]int{}
	if !ropts.DisableClustering {
		for pred, paths := range mentionPaths {
			clusterSize[pred] = clusterPredPaths(paths, maxMentionsPerObj[pred], ropts.MaxClusterPaths)
		}
	}

	res := &AnnotationResult{Topics: topics, AnnotatedPages: make([]bool, len(pages))}
	var s pageStreamer
	for pi, p := range pages {
		pg := groups[pi]
		if pg == nil {
			continue
		}
		var anns []Annotation
		for _, pred := range sortedKeys(pg) {
			objKeys := sortedKeys(pg[pred])
			predFields := make([][]int, len(objKeys))
			for i, objKey := range objKeys {
				predFields[i] = pg[pred][objKey].fields
			}
			for i, objKey := range objKeys {
				g := pg[pred][objKey]
				if ropts.AnnotateAllMentions {
					for _, fi := range g.fields {
						anns = append(anns, Annotation{PageIdx: pi, FieldIdx: fi, Predicate: pred})
					}
					continue
				}
				forceCluster := pagesWithTopic > 0 &&
					float64(objPageCount[pred][objKey]) > ropts.DuplicatedPageFrac*float64(pagesWithTopic)
				fi, ok := chooseMention(p, &s, predFields[i], predFields, clusterSize[pred], forceCluster)
				if ok {
					anns = append(anns, Annotation{PageIdx: pi, FieldIdx: fi, Predicate: pred})
				}
			}
		}
		if len(anns) < ropts.MinAnnotations {
			continue // informativeness filter (§3.1.2 step 3)
		}
		res.AnnotatedPages[pi] = true
		res.Annotations = append(res.Annotations, Annotation{PageIdx: pi, FieldIdx: topics[pi].FieldIdx, Predicate: NameClass})
		res.Annotations = append(res.Annotations, anns...)
	}
	return res
}
