package cluster

import "sort"

// PageSignature is the template fingerprint of a page: the set of
// tail-truncated tag paths (with class attributes) of its elements, as
// dom.StreamPage.AppendSignature lists them — each element's last three
// ancestor-or-self tags joined with '/', suffixed by ".class" when it has
// a class. Pages generated from the same template share most of their
// signature; pages from different templates (movie vs person vs chart
// pages) do not.
type PageSignature map[string]bool

// Jaccard returns the Jaccard similarity of two signatures.
func Jaccard(a, b PageSignature) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	inter := 0
	for k := range small {
		if large[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// PageClusterOptions configures ClusterPages.
type PageClusterOptions struct {
	// Threshold is the minimum signature similarity for a page to join an
	// existing cluster (default 0.6). The paper observes Vertex clustering
	// is imperfect (71,440 of 73,410 Rotten Tomatoes pages fell into one
	// cluster); a mid-range threshold reproduces that behaviour: related
	// templates merge, radically different ones split.
	Threshold float64
}

// ClusterPages groups page indices into template clusters: a greedy,
// deterministic approximation of the Vertex clustering algorithm [17]. A
// page joins the first cluster whose exemplar signature is similar enough;
// otherwise it founds a new cluster. Clusters are returned largest-first,
// page order preserved within a cluster.
func ClusterPages(sigs []PageSignature, opts PageClusterOptions) [][]int {
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = 0.6
	}
	type cl struct {
		exemplar PageSignature
		members  []int
	}
	var clusters []*cl
	for i, sig := range sigs {
		placed := false
		for _, c := range clusters {
			if Jaccard(sig, c.exemplar) >= threshold {
				c.members = append(c.members, i)
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, &cl{exemplar: sig, members: []int{i}})
		}
	}
	sort.SliceStable(clusters, func(i, j int) bool {
		return len(clusters[i].members) > len(clusters[j].members)
	})
	out := make([][]int, len(clusters))
	for i, c := range clusters {
		out[i] = c.members
	}
	return out
}
