package mlr

import "math"

// LIBLINEAR's trust-region constants (Lin, Weng & Keerthi, "Trust region
// Newton method for large-scale logistic regression", JMLR 2008): a step
// is accepted when the actual reduction exceeds eta0 of the predicted one,
// and eta1/eta2 with sigma1..3 decide how the region's radius changes.
const (
	tronEta0, tronEta1, tronEta2               = 1e-4, 0.25, 0.75
	tronSigma1, tronSigma2, tronSigma3 float64 = 0.25, 0.5, 4
	tronCGTol                                  = 0.1   // CG stops at ‖r‖ ≤ 0.1‖g‖
	tronPlateau                                = 1e-12 // relative reduction below which the fit has converged numerically
)

// tron is one trust-region Newton fit over collapsed rows: its parameter
// vectors, both halves of the conjugate-gradient solve and each row's
// softmax at the accepted point and at the trial one. Every buffer is
// carved from one array before the first step.
type tron struct {
	r  *rows
	l2 float64
	// w, g and p are the accepted point, its gradient and its rows'
	// softmax; wNew, gNew and pNew the trial point's.
	w, g, p          []float64
	wNew, gNew, pNew []float64
	// s is the step, res the CG residual −g − H·s, d the search direction
	// and hd its product with the Hessian.
	s, res, d, hd []float64
	stats         FitStats
}

func newTron(r *rows, l2 float64) *tron {
	n := r.features*r.classes + r.classes
	m := len(r.x) * r.classes
	buf := make([]float64, 8*n+2*m)
	next := func(size int) []float64 {
		v := buf[:size:size]
		buf = buf[size:]
		return v
	}
	t := &tron{r: r, l2: l2}
	t.w, t.g, t.wNew, t.gNew = next(n), next(n), next(n), next(n)
	t.s, t.res, t.d, t.hd = next(n), next(n), next(n), next(n)
	t.p, t.pNew = next(m), next(m)
	return t
}

// run minimises the objective from θ = 0. It stops when ‖g‖∞ over the
// dataset's features (rows.gradNorm) is under tol, or
// when the actual and the predicted reduction of a step both fall under
// tronPlateau·|f| (numerical convergence: both count as converged), or
// after maxIter Newton steps, accepted or not.
func (t *tron) run(maxIter int, tol float64) {
	f := t.r.lossGrad(t.w, t.g, t.p, t.l2)
	t.stats.Evals = 1
	gInf := t.r.gradNorm(t.g)
	delta := math.Sqrt(sumSquares(t.g))
	for {
		if gInf < tol {
			t.stats.Converged = true
			break
		}
		if t.stats.Iters == maxIter {
			break
		}
		t.stats.Iters++
		boundary := t.cg(delta)

		// The trial point, and gᵀs, sᵀres and sᵀs for the predicted
		// reduction −gᵀs − ½sᵀHs = −½(gᵀs − sᵀres) and the radius.
		var gs, sr, ss float64
		for i, si := range t.s {
			t.wNew[i] = t.w[i] + si
			gs += float64(t.g[i] * si)
			sr += float64(si * t.res[i])
			ss += float64(si * si)
		}
		prered := -0.5 * (gs - sr)
		fNew := t.r.lossGrad(t.wNew, t.gNew, t.pNew, t.l2)
		t.stats.Evals++
		actred := f - fNew
		sNorm := math.Sqrt(ss)
		if t.stats.Iters == 1 {
			delta = min(delta, sNorm)
		}
		// alpha·‖s‖ is where the quadratic through f, gᵀs and fNew along
		// s has its minimum.
		alpha := tronSigma3
		if q := fNew - f - gs; q > 0 {
			alpha = max(tronSigma1, -0.5*(gs/q))
		}
		switch {
		case actred < tronEta0*prered:
			delta = min(alpha*sNorm, tronSigma2*delta)
		case actred < tronEta1*prered:
			delta = max(tronSigma1*delta, min(alpha*sNorm, tronSigma2*delta))
		case actred < tronEta2*prered:
			delta = max(tronSigma1*delta, min(alpha*sNorm, tronSigma3*delta))
		case boundary:
			// A very successful step the region cut short: LIBLINEAR
			// grows the region by sigma3 outright.
			delta = tronSigma3 * delta
		default:
			delta = max(delta, min(alpha*sNorm, tronSigma3*delta))
		}
		if actred > tronEta0*prered {
			t.w, t.wNew = t.wNew, t.w
			t.g, t.gNew = t.gNew, t.g
			t.p, t.pNew = t.pNew, t.p
			f = fNew
			gInf = t.r.gradNorm(t.g)
		}
		if math.Abs(actred) <= tronPlateau*math.Abs(f) && math.Abs(prered) <= tronPlateau*math.Abs(f) {
			t.stats.Converged = true
			break
		}
		if prered <= 0 {
			break
		}
	}
	t.stats.GradNorm = gInf
}

// cg solves H·s = −g by conjugate gradients inside the trust region
// ‖s‖ ≤ delta, from s = 0, until ‖res‖ ≤ tronCGTol·‖g‖; a step that would
// leave the region is cut at its boundary, and the solve ends there. It
// leaves the residual −g − H·s in res and reports whether s reached the
// boundary. Each step is one Hessian–vector pass over the rows, at the
// softmax of the accepted point.
func (t *tron) cg(delta float64) (boundary bool) {
	s, res, d, hd := t.s, t.res, t.d, t.hd
	var rr float64
	for i, gi := range t.g {
		s[i] = 0
		res[i] = -gi
		d[i] = -gi
		rr += float64(gi * gi)
	}
	tol := tronCGTol * math.Sqrt(rr)
	for steps := 0; math.Sqrt(rr) > tol && steps < len(s); steps++ {
		dhd := t.r.hessVec(d, hd, t.p, t.l2)
		t.stats.HessVecs++
		if !(dhd > 0) {
			// d holds no curvature, which a positive-semidefinite H has
			// only along the intercepts' common shift, where g is zero.
			break
		}
		alpha := rr / dhd
		// Where s + alpha·d lands, and sᵀs, sᵀd and dᵀd for the cut at
		// the boundary if it lands outside.
		var ss, sd, dd, next float64
		for i, si := range s {
			di := d[i]
			ss += float64(si * si)
			sd += float64(si * di)
			dd += float64(di * di)
			v := si + float64(alpha*di)
			next += float64(v * v)
		}
		boundary = next > delta*delta
		if boundary {
			// alpha ≥ 0 solving ‖s + alpha·d‖ = delta, in the form that
			// does not cancel.
			dsq := float64(delta * delta)
			rad := math.Sqrt(float64(sd*sd) + float64(dd*(dsq-ss)))
			if sd >= 0 {
				alpha = (dsq - ss) / (sd + rad)
			} else {
				alpha = (rad - sd) / dd
			}
		}
		prev := rr
		rr = 0
		for i := range s {
			s[i] += float64(alpha * d[i])
			ri := res[i] - float64(alpha*hd[i])
			res[i] = ri
			rr += float64(ri * ri)
		}
		if boundary {
			break
		}
		beta := rr / prev
		for i, ri := range res {
			d[i] = ri + float64(beta*d[i])
		}
	}
	return boundary
}

//ceres:allocfree
func sumSquares(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += float64(v * v)
	}
	return s
}

//ceres:allocfree
func infNorm(a []float64) float64 {
	var m float64
	for _, v := range a {
		m = maxAbs(m, v)
	}
	return m
}

// maxAbs returns |v| if it exceeds m, else m; a NaN v leaves m as it is.
//
//ceres:allocfree
func maxAbs(m, v float64) float64 {
	if v < 0 {
		v = -v
	}
	if v > m {
		return v
	}
	return m
}
