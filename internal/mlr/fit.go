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
	scratch           []float64 // one value per class, reused across evaluations
}

// collapse groups ds into distinct rows in first-occurrence order. Rows
// are told apart by a byte key over label, indices and value bits; the
// map only finds a row's index — output order comes from the slices, so
// it is the same on every run.
func collapse(ds *Dataset) *rows {
	r := &rows{classes: ds.NumClasses, features: ds.NumFeatures(), scratch: make([]float64, ds.NumClasses)}
	index := make(map[string]int)
	var key []byte
	for i, x := range ds.X {
		key = binary.AppendUvarint(key[:0], uint64(ds.Y[i]))
		for _, f := range x {
			key = binary.AppendUvarint(key, uint64(f.Index))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(f.Value))
		}
		if at, ok := index[string(key)]; ok {
			r.count[at]++
			continue
		}
		index[string(key)] = len(r.x)
		r.x = append(r.x, x)
		r.y = append(r.y, ds.Y[i])
		r.count = append(r.count, 1)
	}
	return r
}

// lossGrad computes the regularized negative log-likelihood under
// parameters theta and writes its gradient into grad. Each row is scored
// once and weighs in with its count c: loss += c·(lse − s_y) and the
// gradient coefficient of class k is c·(p_k − 1[k = y]). exp(s_k − max)
// is taken once per class and serves both lse and p_k.
//
//ceres:allocfree
func (r *rows) lossGrad(theta, grad []float64, l2 float64) float64 {
	K := r.classes
	W, B := theta[:r.features*K], theta[r.features*K:]
	clear(grad)
	gW, gB := grad[:r.features*K], grad[r.features*K:]

	var loss float64
	e := r.scratch
	for i, x := range r.x {
		copy(e, B)
		for _, f := range x {
			v := f.Value
			col := W[f.Index*K:][:len(e)] // len(e) wide: no bounds checks below
			for k := range e {
				e[k] += v * col[k]
			}
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
		loss += c * (max + math.Log(sum) - sy)
		// e becomes the row's gradient coefficients.
		scale := c / sum
		for k := range e {
			e[k] *= scale
		}
		e[y] -= c
		for k, g := range e {
			gB[k] += g
		}
		for _, f := range x {
			v := f.Value
			col := gW[f.Index*K:][:len(e)]
			for k, g := range e {
				col[k] += g * v
			}
		}
	}
	// L2 on weights only, matching scikit-learn's unpenalized intercept.
	for j, w := range W {
		loss += 0.5 * l2 * w * w
		gW[j] += l2 * w
	}
	return loss
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
