package mlr

import (
	"encoding/binary"
	"math"
	"slices"
)

// FitStats reports how one Train call went, so a fit that stopped at
// MaxIter short of its tolerance is counted instead of passing silently.
type FitStats struct {
	// Examples is the dataset size; Rows is how many distinct
	// (vector, label) rows the objective was evaluated over, and Columns
	// how many distinct feature columns: features that fire on the same
	// rows with the same values are one parameter of the solver.
	Examples, Rows, Columns int
	// Iters counts Newton steps, accepted or not (SGD: epochs); Evals
	// counts objective evaluations, one up front and one per step;
	// HessVecs counts Hessian–vector products, one per conjugate-gradient
	// step.
	Iters, Evals, HessVecs int
	// GradNorm is the gradient's infinity norm where the fit stopped, over
	// the dataset's features.
	GradNorm float64
	// Converged is false when the fit ran out of Newton steps.
	Converged bool
}

// rows is a training set collapsed to its distinct (vector, label) rows
// over its distinct feature columns. Semi-structured sites are templated,
// so most examples repeat an earlier row exactly; the negative
// log-likelihood is a sum over examples, equal terms of a sum can be
// grouped, and so the objective over rows weighted by their multiplicities
// is the objective over the examples.
//
// On templates features also co-occur: a tag and its class at one
// position fire on the same rows with the same values. The m features of
// such a column are one parameter z of the solver, each feature's weight
// z/√m, and the column holds their value times √m. From θ = 0 the Newton
// solver's iterates keep the weights of identical columns equal, and on
// that subspace w ↦ z = √m·w is an isometry under which the objective is
// the same uniform-L2 logistic regression, so every step and the optimum
// are the same in exact arithmetic. Without identical columns every m is
// 1 and no bit moves.
type rows struct {
	x     []Vector // over columns, not features
	y     []int
	count []float64 // multiplicity of each row; sums to the dataset size
	// classes and features fix theta's layout: weights column-major
	// (column j, class k at j*classes+k — one non-zero touches one
	// contiguous column, as in TransposedModel), intercepts after them.
	// features counts columns.
	classes, features int
	// column maps each of the dataset's features to its column, and
	// scale holds each column's √m.
	column []int
	scale  []float64
	// e is lossGrad's and hessVec's scratch: one row's scores, then its
	// gradient or Hessian coefficients.
	e []float64
}

// collapse groups ds into distinct rows in first-occurrence order, then
// its features into distinct columns numbered by their first feature.
// Rows are told apart by a byte key over label, indices and value bits,
// columns by one over the rows they fire on and their value bits; the
// maps only find an index — output order comes from the slices, so it is
// the same on every run. A feature found in no row is one column with
// every other such feature, whose weight stays 0.
//
// The rows are rewritten over columns into one array of exactly their
// size, so the collapsed set holds none of the dataset's storage:
// whatever the examples were carved from is garbage once collapse
// returns.
func collapse(ds *Dataset) *rows {
	r := &rows{classes: ds.NumClasses}
	index := make(map[string]int)
	var key []byte
	for i, x := range ds.X {
		key = x.AppendKey(binary.AppendUvarint(key[:0], uint64(ds.Y[i])))
		if at, ok := index[string(key)]; ok {
			r.count[at]++
			continue
		}
		index[string(key)] = len(r.x)
		r.x = append(r.x, x)
		r.y = append(r.y, ds.Y[i])
		r.count = append(r.count, 1)
	}

	// Each feature's column key, (row, value bits) per non-zero in row
	// order, 12 bytes each, at off[j] in one buffer.
	D := ds.NumFeatures()
	off := make([]int, D+1)
	for _, x := range r.x {
		for _, f := range x {
			off[f.Index+1] += 12
		}
	}
	for j := range D {
		off[j+1] += off[j]
	}
	buf := make([]byte, off[D])
	at := slices.Clone(off[:D])
	for i, x := range r.x {
		for _, f := range x {
			b := buf[at[f.Index]:][:12]
			binary.LittleEndian.PutUint32(b, uint32(i))
			binary.LittleEndian.PutUint64(b[4:], math.Float64bits(f.Value))
			at[f.Index] += 12
		}
	}
	keys := string(buf)
	columns := make(map[string]int)
	r.column = make([]int, D)
	var first []int // each column's first feature
	for j := range D {
		c, ok := columns[keys[off[j]:off[j+1]]]
		if !ok {
			c = len(first)
			columns[keys[off[j]:off[j+1]]] = c
			first = append(first, j)
			r.scale = append(r.scale, 0)
		}
		r.column[j] = c
		r.scale[c]++
	}
	size := 0
	for c, j := range first {
		size += (off[j+1] - off[j]) / 12
		r.scale[c] = math.Sqrt(r.scale[c])
	}
	r.features = len(first)

	// A column's features are all in the rows it fires on; its first one
	// stands for it, and the columns of a row stay in increasing order.
	flat := make([]Feature, 0, size)
	for i, x := range r.x {
		at := len(flat)
		for _, f := range x {
			if c := r.column[f.Index]; first[c] == f.Index {
				flat = append(flat, Feature{Index: c, Value: f.Value * r.scale[c]})
			}
		}
		r.x[i] = flat[at:len(flat):len(flat)]
	}
	r.e = make([]float64, r.classes)
	return r
}

// gradNorm is the infinity norm of gradient g over the dataset's
// features: each feature of a column of m has the column's component
// over √m.
//
//ceres:allocfree
func (r *rows) gradNorm(g []float64) float64 {
	K := r.classes
	n := infNorm(g[r.features*K:][:K])
	for c, s := range r.scale {
		for _, v := range g[c*K:][:K] {
			n = maxAbs(n, v/s)
		}
	}
	return n
}

// lossGrad computes the regularized negative log-likelihood under
// parameters theta and writes its gradient into grad, in one pass over
// the rows; each row's softmax goes to p, K values a row, for hessVec.
//
// Each row is scored once, its classes in register blocks of eight, then
// four, then one; per class the sum starts at B[k] and adds the row's
// features in order. The row is weighed in with its count c:
// loss += c·(lse − s_y), and the gradient coefficient of class k is
// c·(p_k − 1[k = y]); exp(s_k − max) is taken once per class and serves
// both lse and p_k = exp(s_k − max)/sum. The coefficients go to gB and
// are scattered into the row's feature columns of gW, in the same blocks.
// The L2 term follows, over W in index order. Every gradient component so
// receives its additions in row order from +0.
//
//ceres:allocfree
func (r *rows) lossGrad(theta, grad, p []float64, l2 float64) float64 {
	K := r.classes
	W, B := theta[:r.features*K], theta[r.features*K:][:K]
	clear(grad)
	gW, gB := grad[:r.features*K], grad[r.features*K:][:K]
	e := r.e

	var loss float64
	for i, x := range r.x {
		scoreRow(e, B, theta, x)
		y, c := r.y[i], r.count[i]
		sy := e[y]
		max := e[0]
		for _, s := range e[1:] {
			if s > max {
				max = s
			}
		}
		var sum float64
		for k, s := range e {
			e[k] = math.Exp(s - max)
			sum += e[k]
		}
		loss += float64(c * (max + math.Log(sum) - sy))
		// e becomes the row's gradient coefficients.
		scale := c / sum
		pi := p[i*K:][:K]
		for k := range e {
			pi[k] = e[k] / sum
			e[k] *= scale
		}
		e[y] -= c
		for k, g := range e {
			gB[k] += g
		}
		scatterRow(grad, e, x)
	}
	// L2 on weights only, matching scikit-learn's unpenalized intercept.
	for j, w := range W {
		loss += float64(0.5 * l2 * w * w)
		gW[j] += float64(l2 * w)
	}
	return loss
}

// scoreRow writes into e the scores of row x, one per class: class k's
// intercept b[k] plus the row's features in order, each against w's
// weight for (feature, k) at feature·K + k, K = len(e). The classes go in
// register blocks of eight, then four, then one.
//
//ceres:allocfree
func scoreRow(e, b, w []float64, x Vector) {
	K, k := len(e), 0
	// w[k:], not a slice of w's weights: those are empty when no row has
	// a feature.
	for ; k+8 <= K; k += 8 {
		scoreBlock8(e[k:k+8], b[k:k+8], w[k:], K, x)
	}
	for ; k+4 <= K; k += 4 {
		scoreBlock4(e[k:k+4], b[k:k+4], w[k:], K, x)
	}
	for ; k < K; k++ {
		s := b[k]
		for _, f := range x {
			s += float64(f.Value * w[f.Index*K+k])
		}
		e[k] = s
	}
}

// scatterRow adds each of row x's coefficients e, one per class, times
// each of the row's feature values to that feature's column of g, in
// scoreRow's blocks.
//
//ceres:allocfree
func scatterRow(g, e []float64, x Vector) {
	K, k := len(e), 0
	for ; k+8 <= K; k += 8 {
		scatterBlock8(g[k:], e[k:k+8], K, x)
	}
	for ; k+4 <= K; k += 4 {
		scatterBlock4(g[k:], e[k:k+4], K, x)
	}
	for ; k < K; k++ {
		c := e[k]
		for _, f := range x {
			g[f.Index*K+k] += float64(c * f.Value)
		}
	}
}

// scoreBlock8 writes into e the scores of eight consecutive classes: b's
// intercepts plus the row's features in order, each against the class's
// weights w[j*stride:], held in registers across the row.
//
//ceres:allocfree
func scoreBlock8(e, b, w []float64, stride int, x Vector) {
	s0, s1, s2, s3, s4, s5, s6, s7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	for _, f := range x {
		v, col := f.Value, w[f.Index*stride:][:8]
		s0 += float64(v * col[0])
		s1 += float64(v * col[1])
		s2 += float64(v * col[2])
		s3 += float64(v * col[3])
		s4 += float64(v * col[4])
		s5 += float64(v * col[5])
		s6 += float64(v * col[6])
		s7 += float64(v * col[7])
	}
	e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// scoreBlock4 is scoreBlock8 for four classes.
//
//ceres:allocfree
func scoreBlock4(e, b, w []float64, stride int, x Vector) {
	s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
	for _, f := range x {
		v, col := f.Value, w[f.Index*stride:][:4]
		s0 += float64(v * col[0])
		s1 += float64(v * col[1])
		s2 += float64(v * col[2])
		s3 += float64(v * col[3])
	}
	e[0], e[1], e[2], e[3] = s0, s1, s2, s3
}

// scatterBlock8 adds one row's gradient coefficients of eight consecutive
// classes, held in registers, times each of the row's feature values to
// that feature's columns g[j*stride:].
//
//ceres:allocfree
func scatterBlock8(g, e []float64, stride int, x Vector) {
	e0, e1, e2, e3, e4, e5, e6, e7 := e[0], e[1], e[2], e[3], e[4], e[5], e[6], e[7]
	for _, f := range x {
		v, col := f.Value, g[f.Index*stride:][:8]
		col[0] += float64(e0 * v)
		col[1] += float64(e1 * v)
		col[2] += float64(e2 * v)
		col[3] += float64(e3 * v)
		col[4] += float64(e4 * v)
		col[5] += float64(e5 * v)
		col[6] += float64(e6 * v)
		col[7] += float64(e7 * v)
	}
}

// scatterBlock4 is scatterBlock8 for four classes.
//
//ceres:allocfree
func scatterBlock4(g, e []float64, stride int, x Vector) {
	e0, e1, e2, e3 := e[0], e[1], e[2], e[3]
	for _, f := range x {
		v, col := f.Value, g[f.Index*stride:][:4]
		col[0] += float64(e0 * v)
		col[1] += float64(e1 * v)
		col[2] += float64(e2 * v)
		col[3] += float64(e3 * v)
	}
}

// hessVec writes into hv the Hessian of lossGrad's objective, at the
// point whose row softmaxes p holds, times v, and returns vᵀ·hv, in one
// pass over the rows on lossGrad's kernels. Per row, scoreRow takes
// u = X·v with v's intercept components as the intercepts,
// r = c·p⊙(u − pᵀu), and scatterRow adds r to the row's columns of hv, as
// it goes to the intercepts; the L2 term follows, over the weights in
// index order.
//
//ceres:allocfree
func (r *rows) hessVec(v, hv, p []float64, l2 float64) float64 {
	K := r.classes
	V, vB := v[:r.features*K], v[r.features*K:][:K]
	clear(hv)
	hW, hB := hv[:r.features*K], hv[r.features*K:][:K]
	u := r.e
	for i, x := range r.x {
		scoreRow(u, vB, v, x)
		pi, c := p[i*K:][:K], r.count[i]
		var pu float64
		for k, uk := range u {
			pu += float64(pi[k] * uk)
		}
		for k, uk := range u {
			g := float64(float64(c*pi[k]) * (uk - pu))
			u[k] = g
			hB[k] += g
		}
		scatterRow(hv, u, x)
	}
	var vhv float64
	for j, w := range V {
		h := hW[j] + float64(l2*w)
		hW[j] = h
		vhv += float64(w * h)
	}
	for k, w := range vB {
		vhv += float64(w * hB[k])
	}
	return vhv
}

// trainTron fits m by trust-region Newton over the collapsed rows and
// copies the solution into m's class-major layout, each feature's weight
// its column's over √m.
func trainTron(m *Model, r *rows, examples int, opts TrainOptions) FitStats {
	K, D := m.NumClasses, m.NumFeatures
	t := newTron(r, opts.L2)
	t.run(opts.MaxIter, opts.Tol)
	for j := 0; j < D; j++ {
		c := r.column[j]
		z, s := t.w[c*K:][:K], r.scale[c]
		for k := 0; k < K; k++ {
			m.W[k*D+j] = z[k] / s
		}
	}
	copy(m.B, t.w[r.features*K:])
	t.stats.Examples, t.stats.Rows, t.stats.Columns = examples, len(r.x), r.features
	return t.stats
}
