package core

import (
	"sort"

	"ceres/internal/cluster"
	"ceres/internal/dom"
	"ceres/internal/kb"
	"ceres/internal/strmatch"
)

// RelationOptions tunes Algorithm 2 (paper §3.2).
type RelationOptions struct {
	// MinAnnotations is the informativeness filter: pages with fewer
	// relation annotations are dropped entirely (§3.1.2 step 3,
	// "e.g., >= 3").
	MinAnnotations int
	// DuplicatedPageFrac: an object value serving a predicate on more than
	// this fraction of annotated pages forces the global-cluster route
	// (§3.2.2 case 2, "more than half of the annotated pages").
	DuplicatedPageFrac float64
	// MaxClusterPaths caps the number of distinct XPaths fed to the
	// agglomerative clustering (cost guard; excess lowest-count paths get
	// cluster size 0).
	MaxClusterPaths int
	// DisableClustering turns off the global-evidence step (ablation 2 of
	// DESIGN.md §4); ties then remain unannotated.
	DisableClustering bool
	// AnnotateAllMentions bypasses Algorithm 2 entirely and labels every
	// mention of every object with every applicable relation — this is
	// the CERES-Topic baseline (§5.2).
	AnnotateAllMentions bool
}

func (o RelationOptions) withDefaults() RelationOptions {
	if o.MinAnnotations == 0 {
		o.MinAnnotations = 3
	}
	if o.DuplicatedPageFrac == 0 {
		o.DuplicatedPageFrac = 0.5
	}
	if o.MaxClusterPaths == 0 {
		o.MaxClusterPaths = 400
	}
	return o
}

// NameClass is the class label of the topic-name node (§4: "the DOM node
// that contains the topic entity is considered as expressing the 'name'
// relation").
const NameClass = "name"

// Annotation is one training label: a field on a page expresses a
// predicate.
type Annotation struct {
	PageIdx   int
	FieldIdx  int
	Predicate string
}

// AnnotationResult is the output of the annotation stage.
type AnnotationResult struct {
	// Annotations lists positive labels across all annotated pages.
	Annotations []Annotation
	// Topics is the per-page topic assignment (index-aligned with the
	// input pages).
	Topics []TopicResult
	// AnnotatedPages marks pages that survived the informativeness
	// filter.
	AnnotatedPages []bool
}

// NumAnnotatedPages counts pages that produced annotations.
func (r *AnnotationResult) NumAnnotatedPages() int {
	n := 0
	for _, b := range r.AnnotatedPages {
		if b {
			n++
		}
	}
	return n
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
	topics := IdentifyTopicsLegacy(pages, K, topts)

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
		triples := K.TriplesOf(topics[pi].EntityID)
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
				if K.MatchesObject(f.Text, t.Object) {
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
				fi, ok := chooseMention(p, predFields[i], predFields, clusterSize[pred], forceCluster)
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

// chooseMention implements BestLocalMention (Algorithm 2 lines 1–14) plus
// the global tie-breaking of §3.2.2 for one (predicate, object) group:
// fields are the object's candidate mentions, predFields the mention lists
// of every object of the predicate on the page. At most one mention is
// annotated (§3.2: "we annotate no more than one mention of each object
// for a predicate").
func chooseMention(p *Page, fields []int, predFields [][]int, clusterSize map[string]int, forceCluster bool) (int, bool) {
	best := bestLocalMentions(p, fields, predFields)
	if forceCluster {
		// Local evidence is untrustworthy for near-constant values; only
		// the dominant global cluster may win.
		return pickByCluster(p, fields, clusterSize)
	}
	if len(best) == 1 {
		return best[0], true
	}
	// Tie: resolve by global cluster size.
	return pickByCluster(p, best, clusterSize)
}

// bestLocalMentions returns the mention(s) whose exclusive-ancestor
// subtree contains the most sibling objects of the same predicate.
func bestLocalMentions(p *Page, fields []int, predFields [][]int) []int {
	if len(fields) == 1 {
		return fields
	}
	bestCount := -1
	var best []int
	for _, fi := range fields {
		anc := exclusiveAncestor(p, fi, fields)
		count := objectsUnder(p, anc, predFields)
		if count > bestCount {
			bestCount = count
			best = []int{fi}
		} else if count == bestCount {
			best = append(best, fi)
		}
	}
	return best
}

// exclusiveAncestor returns the highest ancestor of the mention that
// contains no other mention of the same object (Algorithm 2 line 5).
func exclusiveAncestor(p *Page, fi int, mentions []int) *dom.Node {
	node := p.Fields[fi].Node
	anc := node
	for cand := node.Parent; cand != nil; cand = cand.Parent {
		exclusive := true
		for _, mi := range mentions {
			if mi == fi {
				continue
			}
			if cand.Contains(p.Fields[mi].Node) {
				exclusive = false
				break
			}
		}
		if !exclusive {
			break
		}
		anc = cand
	}
	return anc
}

// objectsUnder counts the distinct objects of the predicate with at least
// one mention inside the subtree (Algorithm 2 line 7: "count of all
// objects for predicate under ancestorNode").
func objectsUnder(p *Page, root *dom.Node, predFields [][]int) int {
	count := 0
	for _, fields := range predFields {
		for _, fi := range fields {
			if root.Contains(p.Fields[fi].Node) {
				count++
				break
			}
		}
	}
	return count
}

// pickByCluster selects, among candidate fields, the unique one whose path
// belongs to the largest global cluster.
func pickByCluster(p *Page, candidates []int, clusterSize map[string]int) (int, bool) {
	if len(clusterSize) == 0 || len(candidates) == 0 {
		return 0, false
	}
	bestSize := -1
	bestIdx := -1
	tied := false
	for _, fi := range candidates {
		size := clusterSize[p.Fields[fi].PathString]
		if size > bestSize {
			bestSize, bestIdx, tied = size, fi, false
		} else if size == bestSize {
			tied = true
		}
	}
	if tied || bestSize <= 0 {
		return 0, false
	}
	return bestIdx, true
}

// clusterPredPaths clusters the distinct mention paths of one predicate
// (agglomerative, Levenshtein distance over path strings — §3.2.2) into k
// clusters, where k is the maximum number of mentions a single object had
// on any page, "such that all mentions of an object on a page can be
// placed into separate clusters". Returns path -> weighted cluster size.
func clusterPredPaths(paths map[string]int, k, maxPaths int) map[string]int {
	keys := make([]string, 0, len(paths))
	for p := range paths {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(i, j int) bool {
		if paths[keys[i]] != paths[keys[j]] {
			return paths[keys[i]] > paths[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > maxPaths {
		keys = keys[:maxPaths]
	}
	out := make(map[string]int, len(keys))
	if len(keys) == 0 {
		return out
	}
	if k < 1 {
		k = 1
	}
	if len(keys) == 1 {
		out[keys[0]] = paths[keys[0]]
		return out
	}
	weights := make([]int, len(keys))
	runes := make([][]rune, len(keys))
	for i, p := range keys {
		weights[i] = paths[p]
		runes[i] = []rune(p)
	}
	dist := func(i, j int) float64 {
		return float64(strmatch.LevenshteinRunes(runes[i], runes[j]))
	}
	labels := cluster.AgglomerativeWeighted(len(keys), k, weights, dist)
	sizes := map[int]int{}
	for i, l := range labels {
		sizes[l] += weights[i]
	}
	for i, p := range keys {
		out[p] = sizes[labels[i]]
	}
	return out
}
