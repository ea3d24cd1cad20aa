package core

import (
	"sort"

	"ceres/internal/cluster"
	"ceres/internal/dom"
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

// chooseMention implements BestLocalMention (Algorithm 2 lines 1–14) plus
// the global tie-breaking of §3.2.2 for one (predicate, object) group:
// fields are the object's candidate mentions, predFields the mention lists
// of every object of the predicate on the page. At most one mention is
// annotated (§3.2: "we annotate no more than one mention of each object
// for a predicate"). Local evidence reads the page's structure, which s
// streams only when there is more than one mention to weigh.
func chooseMention(p *Page, s *pageStreamer, fields []int, predFields [][]int, clusterSize map[string]int, forceCluster bool) (int, bool) {
	if forceCluster {
		// Local evidence is untrustworthy for near-constant values; only
		// the dominant global cluster may win.
		return pickByCluster(p, fields, clusterSize)
	}
	if len(fields) == 1 {
		return fields[0], true
	}
	best := bestLocalMentions(s.stream(p), fields, predFields)
	if len(best) == 1 {
		return best[0], true
	}
	// Tie: resolve by global cluster size.
	return pickByCluster(p, best, clusterSize)
}

// bestLocalMentions returns the mention(s) whose exclusive-ancestor
// subtree contains the most sibling objects of the same predicate.
func bestLocalMentions(sp *dom.StreamPage, fields []int, predFields [][]int) []int {
	bestCount := -1
	var best []int
	for _, fi := range fields {
		anc := exclusiveAncestor(sp, fi, fields)
		count := objectsUnder(sp, fi, anc, predFields)
		if count > bestCount {
			bestCount = count
			best = []int{fi}
		} else if count == bestCount {
			best = append(best, fi)
		}
	}
	return best
}

// ownNode stands for a mention's own text node where an element record is
// expected: the exclusive ancestor of a mention whose element holds
// another mention of the object.
const ownNode = -1

// exclusiveAncestor returns the highest ancestor of the mention that
// contains no other mention of the same object (Algorithm 2 line 5): an
// element record (0, the document, when the mention is the object's only
// one under it) or ownNode.
func exclusiveAncestor(sp *dom.StreamPage, fi int, mentions []int) int32 {
	anc := int32(ownNode)
	for cand := sp.FieldParent(fi); cand >= 0; cand = sp.Parent(cand) {
		for _, mi := range mentions {
			if mi != fi && holds(sp, cand, mi) {
				return anc
			}
		}
		anc = cand
	}
	return anc
}

// objectsUnder counts the distinct objects of the predicate with at least
// one mention inside the subtree of anc, fi's exclusive ancestor
// (Algorithm 2 line 7: "count of all objects for predicate under
// ancestorNode").
func objectsUnder(sp *dom.StreamPage, fi int, anc int32, predFields [][]int) int {
	count := 0
	for _, fields := range predFields {
		for _, fj := range fields {
			if fj == fi || anc != ownNode && holds(sp, anc, fj) {
				count++
				break
			}
		}
	}
	return count
}

// holds reports whether element record e contains field fi: whether e is
// the field's element or one of its ancestors.
func holds(sp *dom.StreamPage, e int32, fi int) bool {
	for r := sp.FieldParent(fi); r >= 0; r = sp.Parent(r) {
		if r == e {
			return true
		}
	}
	return false
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
