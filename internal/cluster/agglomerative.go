// Package cluster provides the two clustering procedures CERES depends on:
// agglomerative clustering over an arbitrary distance function, used to
// group the XPaths of relation-object mentions across a website (paper
// §3.2.2), and the Vertex-style page-template clustering that splits a
// website into template groups before extraction (§2.1, citing Gulhane et
// al. 2011).
package cluster

import "math"

// AgglomerativeWeighted clusters n items into k clusters by repeatedly
// merging the closest pair under average linkage (the scikit-learn default
// behaviour the paper relies on), with inter-cluster distances maintained
// via the Lance–Williams update. Item i stands for sizes[i] identical
// points: CERES clusters deduplicated XPaths weighted by their mention
// counts, which is equivalent to clustering every mention but far cheaper.
// dist(i,j) supplies the distance between items i and j; it is consulted
// once per pair. The result assigns each item a cluster id in [0, k'),
// where k' = min(k, n). k <= 0 is treated as 1.
func AgglomerativeWeighted(n, k int, sizes []int, dist func(i, j int) float64) []int {
	if n == 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Distance matrix over active clusters.
	d := make([][]float64, n)
	for i := 0; i < n; i++ {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			d[i][j] = v
			d[j][i] = v
		}
	}
	active := make([]bool, n)
	size := make([]float64, n)
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		active[i] = true
		size[i] = float64(sizes[i])
		parent[i] = i
	}
	remaining := n
	for remaining > k {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if d[i][j] < best {
					best, bi, bj = d[i][j], i, j
				}
			}
		}
		// Merge bj into bi; Lance–Williams average-linkage update.
		si, sj := size[bi], size[bj]
		for c := 0; c < n; c++ {
			if !active[c] || c == bi || c == bj {
				continue
			}
			v := (float64(si*d[bi][c]) + float64(sj*d[bj][c])) / (si + sj)
			d[bi][c] = v
			d[c][bi] = v
		}
		size[bi] += size[bj]
		active[bj] = false
		parent[bj] = bi
		remaining--
	}
	// Resolve each item to its surviving root, then renumber compactly.
	find := func(i int) int {
		for parent[i] != i {
			i = parent[i]
		}
		return i
	}
	labels := make([]int, n)
	next := 0
	rootLabel := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		l, ok := rootLabel[r]
		if !ok {
			l = next
			rootLabel[r] = l
			next++
		}
		labels[i] = l
	}
	return labels
}
