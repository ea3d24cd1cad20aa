package mlr

import (
	"encoding/binary"
	"math"
)

// FitStats reports how one Train call went, so a fit that stopped at
// MaxIter short of its tolerance is counted instead of passing silently.
type FitStats struct {
	// Examples is the dataset size; Rows is how many distinct
	// (vector, label) rows the L-BFGS objective was evaluated over.
	Examples, Rows int
	// Iters counts optimizer iterations (SGD: epochs); Evals counts
	// objective evaluations, line-search trials included.
	Iters, Evals int
	// Converged is false when L-BFGS ran out of iterations.
	Converged bool
}

// rows is a training set collapsed to its distinct (vector, label) rows.
// Semi-structured sites are templated, so most examples repeat an earlier
// row exactly; the negative log-likelihood is a sum over examples, equal
// terms of a sum can be grouped, and so the objective over rows weighted
// by their multiplicities is the objective over the examples.
type rows struct {
	x     []Vector
	y     []int
	count []float64 // multiplicity of each row; sums to the dataset size
	// classes and features fix theta's layout: weights feature-major
	// (feature j, class k at j*classes+k — one non-zero touches one
	// contiguous column, as in TransposedModel), intercepts after them.
	classes, features int
	// e is lossGrad's scratch: one row's scores, then its gradient
	// coefficients.
	e []float64
}

// collapse groups ds into distinct rows in first-occurrence order. Rows
// are told apart by a byte key over label, indices and value bits; the
// map only finds a row's index — output order comes from the slices, so
// it is the same on every run.
//
// The rows' vectors are copied into one array of exactly their size, so
// the collapsed set holds none of the dataset's storage: whatever the
// examples were carved from is garbage once collapse returns.
func collapse(ds *Dataset) *rows {
	r := &rows{classes: ds.NumClasses, features: ds.NumFeatures()}
	index := make(map[string]int)
	var key []byte
	size := 0
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
		size += len(x)
	}
	flat := make([]Feature, 0, size)
	for i, x := range r.x {
		at := len(flat)
		flat = append(flat, x...)
		r.x[i] = flat[at:len(flat):len(flat)]
	}
	r.e = make([]float64, r.classes)
	return r
}

// lossGrad computes the regularized negative log-likelihood under
// parameters theta and writes its gradient into grad, in one pass over
// the rows.
//
// Each row is scored once, its classes in register blocks of eight, then
// four, then one; per class the sum starts at B[k] and adds the row's
// features in order. The row is weighed in with its count c:
// loss += c·(lse − s_y), and the gradient coefficient of class k is
// c·(p_k − 1[k = y]); exp(s_k − max) is taken once per class and serves
// both lse and p_k. The coefficients go to gB and are scattered into the
// row's feature columns of gW, in the same blocks. The L2 term follows,
// over W in index order. Every gradient component so receives its
// additions in row order from +0.
//
//ceres:allocfree
func (r *rows) lossGrad(theta, grad []float64, l2 float64) float64 {
	K := r.classes
	W, B := theta[:r.features*K], theta[r.features*K:][:K]
	clear(grad)
	gW, gB := grad[:r.features*K], grad[r.features*K:][:K]
	e := r.e

	var loss float64
	for i, x := range r.x {
		k := 0
		// theta[k:] and grad[k:], not W[k:] and gW[k:]: W is empty when no
		// row has a feature.
		for ; k+8 <= K; k += 8 {
			scoreBlock8(e[k:k+8], B[k:k+8], theta[k:], K, x)
		}
		for ; k+4 <= K; k += 4 {
			scoreBlock4(e[k:k+4], B[k:k+4], theta[k:], K, x)
		}
		for ; k < K; k++ {
			s := B[k]
			for _, f := range x {
				s += float64(f.Value * W[f.Index*K+k])
			}
			e[k] = s
		}
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
		for k := range e {
			e[k] *= scale
		}
		e[y] -= c
		for k, g := range e {
			gB[k] += g
		}
		k = 0
		for ; k+8 <= K; k += 8 {
			scatterBlock8(grad[k:], e[k:k+8], K, x)
		}
		for ; k+4 <= K; k += 4 {
			scatterBlock4(grad[k:], e[k:k+4], K, x)
		}
		for ; k < K; k++ {
			g := e[k]
			for _, f := range x {
				gW[f.Index*K+k] += float64(g * f.Value)
			}
		}
	}
	// L2 on weights only, matching scikit-learn's unpenalized intercept.
	for j, w := range W {
		loss += float64(0.5 * l2 * w * w)
		gW[j] += float64(l2 * w)
	}
	return loss
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

func trainLBFGS(m *Model, r *rows, examples int, opts TrainOptions) FitStats {
	K, D := m.NumClasses, m.NumFeatures
	f := func(x, grad []float64) float64 {
		return r.lossGrad(x, grad, opts.L2)
	}
	res := Minimize(f, make([]float64, D*K+K), LBFGSOptions{MaxIter: opts.MaxIter, Tol: opts.Tol, Memory: 10})
	for j := 0; j < D; j++ {
		for k := 0; k < K; k++ {
			m.W[k*D+j] = res.X[j*K+k]
		}
	}
	copy(m.B, res.X[D*K:])
	return FitStats{Examples: examples, Rows: len(r.x), Iters: res.Iterations, Evals: res.Evals, Converged: res.Converged}
}
