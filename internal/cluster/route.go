package cluster

import "sort"

// Routing sends a never-before-seen page to the template cluster it most
// resembles, so a trained per-cluster extractor can serve pages that were
// not part of training. This is the serve-time counterpart of
// ClusterPages: training fixes the cluster exemplars, routing only
// compares against them.

// Keys returns the signature's entries sorted, for deterministic
// serialization.
func (s PageSignature) Keys() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SignatureFromKeys rebuilds a signature from its serialized key list.
func SignatureFromKeys(keys []string) PageSignature {
	s := make(PageSignature, len(keys))
	for _, k := range keys {
		s[k] = true
	}
	return s
}

// SortedSignature is a page signature as a sorted, duplicate-free key
// slice — the serving-side representation. Jaccard similarity against the
// pre-sorted cluster exemplars becomes a linear merge: no per-page set
// building, no map probes.
type SortedSignature []string

// Sorted converts the map form to the sorted form.
func (s PageSignature) Sorted() SortedSignature {
	return SortedSignature(s.Keys())
}

// JaccardSortedBytes returns the Jaccard similarity of a page signature
// held as sorted, duplicate-free byte views (the stream pass's form) and a
// sorted exemplar, without materializing strings. It equals Jaccard over
// the corresponding map signatures exactly.
func JaccardSortedBytes(a [][]byte, b SortedSignature) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch c := compareBytesString(a[i], b[j]); {
		case c == 0:
			inter++
			i++
			j++
		case c < 0:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// RouteSortedBytes returns the index of the exemplar most similar to sig,
// and the similarity. With no exemplars it returns (-1, 0). Ties go to the
// earliest exemplar, which ClusterPages orders largest-cluster-first, so
// ambiguous pages fall into the dominant template.
func RouteSortedBytes(sig [][]byte, exemplars []SortedSignature) (int, float64) {
	best, bestSim := -1, -1.0
	for i, ex := range exemplars {
		if sim := JaccardSortedBytes(sig, ex); sim > bestSim {
			best, bestSim = i, sim
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestSim
}

// compareBytesString is bytes.Compare against a string, avoiding the
// []byte(string) conversion on the routing hot path.
func compareBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}
