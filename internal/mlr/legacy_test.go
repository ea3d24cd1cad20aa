package mlr

import "math"

// rowMajorLossGrad is rows.lossGrad without its register blocks: one
// loop over the rows that scores each class by class, takes its softmax
// and scatters its gradient straight into the feature-major columns of
// grad, then adds the L2 term. It is frozen here as the reference
// FuzzLossGrad holds the blocked kernel to, bit for bit. Its summed
// products carry the same explicit float64 rounding as the kernel's, so
// the two agree on an architecture that fuses multiply-add too. Do not
// change it.
func rowMajorLossGrad(r *rows, theta, grad []float64, l2 float64) float64 {
	K := r.classes
	W, B := theta[:r.features*K], theta[r.features*K:]
	clear(grad)
	gW, gB := grad[:r.features*K], grad[r.features*K:]

	var loss float64
	e := make([]float64, K)
	for i, x := range r.x {
		copy(e, B)
		for _, f := range x {
			v := f.Value
			col := W[f.Index*K:][:len(e)]
			for k := range e {
				e[k] += float64(v * col[k])
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
		loss += float64(c * (max + math.Log(sum) - sy))
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
				col[k] += float64(g * v)
			}
		}
	}
	for j, w := range W {
		loss += float64(0.5 * l2 * w * w)
		gW[j] += float64(l2 * w)
	}
	return loss
}

// rowMajorHessVec is rows.hessVec without its register blocks: per row,
// u = X·v class by class, r = c·p⊙(u − pᵀu), and r scattered straight into
// the feature-major columns of hv, then the L2 term. It is the reference
// FuzzHessVec holds the blocked kernel to.
func rowMajorHessVec(r *rows, v, hv, p []float64, l2 float64) {
	K := r.classes
	V, vB := v[:r.features*K], v[r.features*K:]
	clear(hv)
	hW, hB := hv[:r.features*K], hv[r.features*K:]
	u := make([]float64, K)
	for i, x := range r.x {
		copy(u, vB)
		for _, f := range x {
			col := V[f.Index*K:][:K]
			for k := range u {
				u[k] += float64(f.Value * col[k])
			}
		}
		pi, c := p[i*K:][:K], r.count[i]
		var pu float64
		for k := range u {
			pu += float64(pi[k] * u[k])
		}
		for k := range u {
			u[k] = float64(float64(c*pi[k]) * (u[k] - pu))
			hB[k] += u[k]
		}
		for _, f := range x {
			col := hW[f.Index*K:][:K]
			for k, g := range u {
				col[k] += float64(g * f.Value)
			}
		}
	}
	for j, w := range V {
		hW[j] += float64(l2 * w)
	}
}
