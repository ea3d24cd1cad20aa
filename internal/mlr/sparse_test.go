package mlr

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewVector(t *testing.T) {
	v := NewVector([]Feature{{3, 1}, {1, 2}, {3, 4}, {2, 0}})
	if len(v) != 2 {
		t.Fatalf("want 2 features after merge/drop, got %v", v)
	}
	if v[0] != (Feature{1, 2}) || v[1] != (Feature{3, 5}) {
		t.Errorf("merged vector = %v", v)
	}
	if NewVector(nil) != nil {
		t.Errorf("empty input should give nil vector")
	}
}

func TestVectorSortedInvariant(t *testing.T) {
	f := func(idxs []uint8, vals []int8) bool {
		n := len(idxs)
		if len(vals) < n {
			n = len(vals)
		}
		feats := make([]Feature, n)
		for i := 0; i < n; i++ {
			feats[i] = Feature{Index: int(idxs[i]), Value: float64(vals[i])}
		}
		v := NewVector(feats)
		for i := 1; i < len(v); i++ {
			if v[i].Index <= v[i-1].Index {
				return false
			}
		}
		for _, f := range v {
			if f.Value == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVectorDot(t *testing.T) {
	v := NewVector([]Feature{{0, 2}, {3, 1}, {10, 5}})
	w := []float64{1, 1, 1, 4} // shorter than max index: index 10 ignored
	if got := v.Dot(w); got != 6 {
		t.Errorf("Dot = %v, want 6", got)
	}
	if got := Vector(nil).Dot(w); got != 0 {
		t.Errorf("nil Dot = %v", got)
	}
	if got := v.MaxIndex(); got != 10 {
		t.Errorf("MaxIndex = %d", got)
	}
	if got := Vector(nil).MaxIndex(); got != -1 {
		t.Errorf("nil MaxIndex = %d", got)
	}
}

func TestDatasetNumFeatures(t *testing.T) {
	ds := &Dataset{}
	ds.Add(NewVector([]Feature{{4, 1}}), 0)
	ds.Add(NewVector([]Feature{{9, 1}}), 1)
	if ds.NumFeatures() != 10 {
		t.Errorf("NumFeatures = %d, want 10", ds.NumFeatures())
	}
	if ds.NumClasses != 2 {
		t.Errorf("NumClasses = %d, want 2", ds.NumClasses)
	}
	if ds.Len() != 2 {
		t.Errorf("Len = %d", ds.Len())
	}
	empty := &Dataset{}
	if empty.NumFeatures() != 0 {
		t.Errorf("empty NumFeatures = %d", empty.NumFeatures())
	}
}

// TestNewVectorSumsDuplicatesAsSortSlice: NewVector sorts with
// slices.SortFunc where it once sorted a copy with sort.Slice. Both are
// the same generated pdqsort, so equal indices keep the same relative
// order and duplicates sum in the same order — bit for bit, on values
// whose sum depends on that order.
func TestNewVectorSumsDuplicatesAsSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := []float64{1, 0.1, 1e16, -1e16, 3.3, -2.7e-8, 1.0 / 3}
	for trial := 0; trial < 500; trial++ {
		feats := make([]Feature, rng.Intn(300))
		for i := range feats {
			feats[i] = Feature{Index: rng.Intn(1 + len(feats)/4), Value: values[rng.Intn(len(values))]}
		}
		want := append([]Feature(nil), feats...)
		sort.Slice(want, func(i, j int) bool { return want[i].Index < want[j].Index })
		want = coalesceSorted(want)
		got := NewVector(feats)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d features, sort.Slice %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
				t.Fatalf("trial %d: feature %d = %v, sort.Slice %v", trial, i, got[i], want[i])
			}
		}
	}
}
