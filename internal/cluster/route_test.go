package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ceres/internal/dom"
)

// randSig builds a random map signature.
func randSig(rng *rand.Rand, n int) PageSignature {
	s := make(PageSignature)
	for i := 0; i < n; i++ {
		s[fmt.Sprintf("div/p%d", rng.Intn(40))] = true
	}
	return s
}

// TestJaccardSortedMatchesJaccard fuzzes random signature pairs through
// both similarity implementations.
func TestJaccardSortedMatchesJaccard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		a := randSig(rng, rng.Intn(30))
		b := randSig(rng, rng.Intn(30))
		want := Jaccard(a, b)
		got := JaccardSorted(a.Sorted(), b.Sorted())
		if got != want {
			t.Fatalf("trial %d: JaccardSorted = %v, Jaccard = %v", trial, got, want)
		}
	}
	if JaccardSorted(nil, nil) != 1 {
		t.Errorf("two empty signatures must be identical")
	}
	if JaccardSorted(SortedSignature{"a"}, nil) != 0 {
		t.Errorf("empty vs non-empty must be 0")
	}
}

// TestRouteSortedMatchesRoute checks routing decisions against their
// definition over map signatures: the earliest exemplar of greatest
// Jaccard similarity, and that similarity.
func TestRouteSortedMatchesRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		var exemplars []PageSignature
		var sortedEx []SortedSignature
		for i := 0; i < 1+rng.Intn(5); i++ {
			ex := randSig(rng, 5+rng.Intn(20))
			exemplars = append(exemplars, ex)
			sortedEx = append(sortedEx, ex.Sorted())
		}
		sig := randSig(rng, 5+rng.Intn(20))
		wi, ws := -1, -1.0
		for i, ex := range exemplars {
			if sim := Jaccard(sig, ex); sim > ws {
				wi, ws = i, sim
			}
		}
		gi, gs := RouteSorted(sig.Sorted(), sortedEx)
		if wi != gi || ws != gs {
			t.Fatalf("trial %d: RouteSorted = (%d, %v), by Jaccard (%d, %v)", trial, gi, gs, wi, ws)
		}
	}
	if i, _ := RouteSorted(SortedSignature{"a"}, nil); i != -1 {
		t.Errorf("routing with no exemplars must return -1")
	}
}

// TestSortedSignatureOfMatchesSignature checks the direct-to-sorted page
// fingerprint equals the map fingerprint's sorted keys.
func TestSortedSignatureOfMatchesSignature(t *testing.T) {
	doc := dom.Parse(`<html><body>
		<div class="a"><p>x</p><p>y</p></div>
		<div class="a"><p>z</p></div>
		<table><tr><td>1</td><td>2</td></tr></table>
	</body></html>`)
	want := SortedSignature(Signature(doc).Keys())
	got := SortedSignatureOf(doc)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedSignatureOf = %v, want %v", got, want)
	}
}
