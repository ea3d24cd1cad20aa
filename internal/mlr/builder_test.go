package mlr

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestVectorBuilderMatchesNewVector fuzzes random (index,value) pairs —
// with duplicates and zeros — through both construction paths.
func TestVectorBuilderMatchesNewVector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var b VectorBuilder
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		feats := make([]Feature, 0, n)
		b.Reset()
		for i := 0; i < n; i++ {
			idx := rng.Intn(15) // small range forces duplicates
			val := float64(rng.Intn(5) - 2)
			feats = append(feats, Feature{Index: idx, Value: val})
			b.Add(idx, val)
		}
		want := NewVector(feats)
		got := b.Build()
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: builder %v != NewVector %v", trial, got, want)
		}
	}
}

// TestVectorBuilderReuse checks that a builder's backing array is reused
// across Reset cycles and that Build's result is stable until then.
func TestVectorBuilderReuse(t *testing.T) {
	var b VectorBuilder
	b.AddID(3)
	b.AddID(1)
	b.AddID(3)
	v := b.Build()
	want := Vector{{Index: 1, Value: 1}, {Index: 3, Value: 2}}
	if !reflect.DeepEqual(v, want) {
		t.Fatalf("Build = %v, want %v", v, want)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.AddID(0)
	if got := b.Build(); len(got) != 1 || got[0].Index != 0 {
		t.Fatalf("second Build = %v", got)
	}
}

// TestProbaIntoMatchesProba verifies the allocation-free scoring paths are
// bit-identical to the allocating one for logistic regression, and that
// neither classifier's result depends on what the buffer held.
func TestProbaIntoMatchesProba(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := &Dataset{NumClasses: 3}
	for i := 0; i < 60; i++ {
		var b VectorBuilder
		for j := 0; j < 8; j++ {
			b.AddID(rng.Intn(20))
		}
		v := append(Vector(nil), b.Build()...)
		ds.Add(v, rng.Intn(3))
	}
	lr, _, err := Train(ds, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nb := TrainNaiveBayes(ds)
	scorers := []Scorer{lr, nb}
	for si, s := range scorers {
		if s.ClassCount() != 3 {
			t.Fatalf("scorer %d ClassCount = %d", si, s.ClassCount())
		}
		out := make([]float64, 3)
		for i, x := range ds.X {
			s.ProbaInto(x, out)
			want := make([]float64, 3)
			s.ProbaInto(x, want)
			if m, ok := s.(*Model); ok {
				want = m.Proba(x)
			}
			for k := range want {
				if out[k] != want[k] {
					t.Fatalf("scorer %d example %d class %d: ProbaInto %v != Proba %v", si, i, k, out, want)
				}
			}
		}
	}
}
