package cluster

import (
	"math"
	"math/rand"
	"testing"

	"ceres/internal/strmatch"
)

// agglomerative clusters n single points.
func agglomerative(n, k int, dist func(i, j int) float64) []int {
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	return AgglomerativeWeighted(n, k, ones, dist)
}

// sizes tallies the number of items per cluster label.
func sizes(labels []int) map[int]int {
	out := map[int]int{}
	for _, l := range labels {
		out[l]++
	}
	return out
}

func TestAgglomerativeTwoBlobs(t *testing.T) {
	// 1-D points: two well-separated blobs.
	pts := []float64{0, 0.1, 0.2, 10, 10.1, 10.2}
	dist := func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
	labels := agglomerative(len(pts), 2, dist)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("first blob split: %v", labels)
	}
	if labels[3] != labels[4] || labels[4] != labels[5] {
		t.Errorf("second blob split: %v", labels)
	}
	if labels[0] == labels[3] {
		t.Errorf("blobs merged: %v", labels)
	}
}

func TestAgglomerativeKRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]float64, 40)
	for i := range pts {
		pts[i] = rng.Float64() * 100
	}
	dist := func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
	for _, k := range []int{1, 2, 5, 17, 40, 60, 0, -3} {
		labels := agglomerative(len(pts), k, dist)
		got := len(sizes(labels))
		want := k
		if want <= 0 {
			want = 1
		}
		if want > len(pts) {
			want = len(pts)
		}
		if got != want {
			t.Errorf("k=%d: got %d clusters, want %d", k, got, want)
		}
		// Partition is total: every label in [0, got).
		for _, l := range labels {
			if l < 0 || l >= got {
				t.Errorf("k=%d: label %d out of range", k, l)
			}
		}
	}
}

func TestAgglomerativeEmptyAndSingle(t *testing.T) {
	if got := agglomerative(0, 3, nil); got != nil {
		t.Errorf("empty input: %v", got)
	}
	dist := func(i, j int) float64 { return 1 }
	got := agglomerative(1, 3, dist)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("single item: %v", got)
	}
}

func TestAgglomerativeWeighted(t *testing.T) {
	// Three XPath shapes: a large list cluster (weight 50), a small
	// recommendation cluster (weight 3), and the list again shifted
	// (weight 30). With k=2, the two list shapes must merge because their
	// paths are nearly identical, leaving the recommendation shape alone.
	paths := []string{
		"/html[1]/body[1]/div[1]/ul[1]/li[1]/a[1]",
		"/html[1]/body[1]/div[4]/div[2]/span[1]/a[1]",
		"/html[1]/body[1]/div[1]/ul[1]/li[2]/a[1]",
	}
	weights := []int{50, 3, 30}
	dist := func(i, j int) float64 {
		return float64(strmatch.LevenshteinRunes([]rune(paths[i]), []rune(paths[j])))
	}
	labels := AgglomerativeWeighted(len(paths), 2, weights, dist)
	if labels[0] != labels[2] {
		t.Errorf("similar paths should merge: %v", labels)
	}
	if labels[0] == labels[1] {
		t.Errorf("distant path should stay alone: %v", labels)
	}
	if got := sizes(labels); len(got) != 2 {
		t.Errorf("want 2 clusters, got %v", got)
	}
}

// TestAgglomerativeDeterministic: same input, same output.
func TestAgglomerativeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := make([]float64, 30)
	for i := range pts {
		pts[i] = rng.Float64()
	}
	dist := func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
	a := agglomerative(len(pts), 4, dist)
	b := agglomerative(len(pts), 4, dist)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic labels at %d", i)
		}
	}
}
