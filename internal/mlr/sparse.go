// Package mlr provides the machine-learning substrate of CERES: sparse
// feature vectors over integer feature IDs, multinomial logistic
// regression with L2 regularization solved to its optimum by LIBLINEAR's
// trust-region Newton method (the paper §4.2 uses scikit-learn's
// LogisticRegression with C=1, the same objective, which scikit-learn
// minimises with L-BFGS), plus an SGD trainer and a multinomial
// naive-Bayes classifier used by the optimizer and classifier-choice
// ablations ("We experimented with several classifiers").
package mlr

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
)

// Feature is one (index, value) component of a sparse vector.
type Feature struct {
	Index int
	Value float64
}

// Vector is a sparse feature vector with strictly increasing indices.
type Vector []Feature

// NewVector builds a Vector from unordered (index,value) pairs, summing
// duplicates and dropping zeros. It sorts and compacts feats in place, so
// the Vector shares feats' backing array: the caller hands the slice over.
// slices.SortFunc is the pdqsort sort.Slice runs, generated from one
// template, without its reflective swaps: equal indices end up in the
// same relative order, so duplicates sum in the same order as ever.
func NewVector(feats []Feature) Vector {
	if len(feats) == 0 {
		return nil
	}
	slices.SortFunc(feats, func(a, b Feature) int { return cmp.Compare(a.Index, b.Index) })
	return Vector(coalesceSorted(feats))
}

// AppendKey appends to dst a byte key of v: two vectors have the same key
// exactly when they hold the same indices with the same value bits.
func (v Vector) AppendKey(dst []byte) []byte {
	for _, f := range v {
		dst = binary.AppendUvarint(dst, uint64(f.Index))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Value))
	}
	return dst
}

// coalesceSorted merges duplicate indices (summing their values) and drops
// zero-valued entries from an index-sorted slice, in place.
//
//ceres:allocfree
func coalesceSorted(sorted []Feature) []Feature {
	out := sorted[:0]
	for _, f := range sorted {
		if len(out) > 0 && out[len(out)-1].Index == f.Index {
			out[len(out)-1].Value += f.Value
			continue
		}
		out = append(out, f)
	}
	final := out[:0]
	for _, f := range out {
		if f.Value != 0 {
			final = append(final, f)
		}
	}
	return final
}

// VectorBuilder accumulates (index, value) pairs into a reusable backing
// array and normalizes them into a Vector without allocating per build —
// the serve-path counterpart of NewVector, which takes a fresh slice per
// vector. A builder is owned by one goroutine (one serve worker); the
// Vector returned by Build aliases the builder's backing array and is
// valid only until the next Reset or Add.
type VectorBuilder struct {
	feats []Feature
}

// Reset empties the builder, keeping its capacity.
//
//ceres:allocfree
func (b *VectorBuilder) Reset() { b.feats = b.feats[:0] }

// Len returns the number of accumulated (pre-coalesce) entries.
func (b *VectorBuilder) Len() int { return len(b.feats) }

// Add appends one (index, value) pair.
//
//ceres:allocfree
func (b *VectorBuilder) Add(index int, value float64) {
	b.feats = append(b.feats, Feature{Index: index, Value: value})
}

// AddID appends a binary feature (value 1).
//
//ceres:allocfree
func (b *VectorBuilder) AddID(index int) { b.Add(index, 1) }

// Build sorts, coalesces duplicates and drops zeros in place, returning
// the normalized Vector. Equivalent to NewVector over the same pairs.
//
//ceres:allocfree
func (b *VectorBuilder) Build() Vector {
	if len(b.feats) == 0 {
		return nil
	}
	sortFeatures(b.feats)
	b.feats = coalesceSorted(b.feats)
	return Vector(b.feats)
}

// sortFeatures orders feats by ascending Index. Build runs once per
// classified node, and a generic comparator sort spends a measurable
// share of serve CPU in closure calls; this direct version sorts the
// small, flat Feature pairs without indirection. Entries with equal
// indices end up in unspecified relative order, which coalesceSorted then
// sums — order-independent for the value-1 features the featurizers emit.
//
//ceres:allocfree
func sortFeatures(f []Feature) {
	for len(f) > 24 {
		lo, hi, mid := 0, len(f)-1, len(f)/2
		if f[mid].Index < f[lo].Index {
			f[mid], f[lo] = f[lo], f[mid]
		}
		if f[hi].Index < f[lo].Index {
			f[hi], f[lo] = f[lo], f[hi]
		}
		if f[hi].Index < f[mid].Index {
			f[hi], f[mid] = f[mid], f[hi]
		}
		pivot := f[mid].Index
		i, j := lo, hi
		for i <= j {
			for f[i].Index < pivot {
				i++
			}
			for f[j].Index > pivot {
				j--
			}
			if i <= j {
				f[i], f[j] = f[j], f[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger: stack depth
		// stays logarithmic regardless of pivot quality.
		if j+1 < len(f)-i {
			sortFeatures(f[:j+1])
			f = f[i:]
		} else {
			sortFeatures(f[i:])
			f = f[:j+1]
		}
	}
	for i := 1; i < len(f); i++ {
		for k := i; k > 0 && f[k].Index < f[k-1].Index; k-- {
			f[k], f[k-1] = f[k-1], f[k]
		}
	}
}

// Dot returns the dot product with a dense weight slice. Indices beyond
// len(w) are ignored, so models can score vectors with unseen features.
//
//ceres:allocfree
func (v Vector) Dot(w []float64) float64 {
	var s float64
	for _, f := range v {
		if f.Index < len(w) {
			s += float64(f.Value * w[f.Index])
		}
	}
	return s
}

// MaxIndex returns the largest feature index, or -1 for an empty vector.
//
//ceres:allocfree
func (v Vector) MaxIndex() int {
	if len(v) == 0 {
		return -1
	}
	return v[len(v)-1].Index
}

// Dataset is a labelled training set. Labels are class indices in
// [0, NumClasses).
type Dataset struct {
	X          []Vector
	Y          []int
	NumClasses int
}

// NumFeatures returns one more than the largest feature index in X.
func (ds *Dataset) NumFeatures() int {
	max := -1
	for _, x := range ds.X {
		if m := x.MaxIndex(); m > max {
			max = m
		}
	}
	return max + 1
}

// Add appends one labelled example.
func (ds *Dataset) Add(x Vector, y int) {
	ds.X = append(ds.X, x)
	ds.Y = append(ds.Y, y)
	if y >= ds.NumClasses {
		ds.NumClasses = y + 1
	}
}

// Len returns the number of examples.
func (ds *Dataset) Len() int { return len(ds.X) }
