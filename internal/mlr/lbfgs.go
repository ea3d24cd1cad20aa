package mlr

import "math"

// LBFGSOptions configures the quasi-Newton minimizer.
type LBFGSOptions struct {
	// MaxIter bounds the number of outer iterations (default 200).
	MaxIter int
	// Tol stops when the gradient infinity norm falls below it
	// (default 1e-5).
	Tol float64
	// Memory is the number of (s,y) correction pairs kept (default 10).
	Memory int
}

// LBFGSResult reports the outcome of Minimize.
type LBFGSResult struct {
	X    []float64
	Loss float64
	// Iterations counts the steps taken.
	Iterations int
	// Evals counts calls of the objective: one up front, then one per
	// line-search trial.
	Evals     int
	Converged bool
}

// Minimize runs limited-memory BFGS with Armijo backtracking line search on
// the function f, which must write the gradient at x into grad and return
// the loss. x0 is not modified. This is the from-scratch replacement for
// scipy's LBFGS that scikit-learn (and therefore the paper's training step)
// relies on.
func Minimize(f func(x, grad []float64) float64, x0 []float64, opts LBFGSOptions) LBFGSResult {
	if opts.MaxIter == 0 {
		opts.MaxIter = 200
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-5
	}
	if opts.Memory == 0 {
		opts.Memory = 10
	}
	n := len(x0)
	x := make([]float64, n)
	copy(x, x0)
	grad := make([]float64, n)
	res := LBFGSResult{Evals: 1}
	loss := f(x, grad)
	gradNorm := infNorm(grad)

	// The correction pairs live in a ring allocated once: up to Memory
	// live pairs, oldest at head, plus the free slot the next pair is
	// computed into before its curvature decides whether it is kept.
	slots := opts.Memory + 1
	ring := make([]float64, 2*slots*n)
	rho := make([]float64, slots)
	// gamma[slot] is sᵀy/yᵀy of the slot's pair, the initial Hessian scale
	// while that pair is the newest; both dots are fixed once the pair is
	// accepted, so they are taken there and not again every iteration.
	gamma := make([]float64, slots)
	sOf := func(slot int) []float64 { return ring[2*slot*n : (2*slot+1)*n] }
	yOf := func(slot int) []float64 { return ring[(2*slot+1)*n : (2*slot+2)*n] }
	head, pairs := 0, 0

	dir := make([]float64, n)
	xNew := make([]float64, n)
	gradNew := make([]float64, n)
	alphaBuf := make([]float64, opts.Memory)

	for iter := 0; iter < opts.MaxIter; iter++ {
		if gradNorm < opts.Tol {
			res.Converged = true
			break
		}
		// Two-loop recursion: dir = -H·grad, and g0 = gradᵀdir. Each pass
		// over dir also takes the dot product the next step needs, over
		// the values it has just written, so the recursion makes one pass
		// per pair and loop instead of two, and every product is summed
		// in the order separate passes would sum it.
		var g0 float64
		if pairs == 0 {
			g0 = scaleDot(dir, grad, -1, grad)
		} else {
			slot := func(i int) int { return (head + i) % slots }
			newest := slot(pairs - 1)
			d := scaleDot(dir, grad, 1, sOf(newest))
			for i := pairs - 1; i > 0; i-- {
				alphaBuf[i] = rho[slot(i)] * d
				d = axpyScaleDot(dir, -alphaBuf[i], yOf(slot(i)), 1, sOf(slot(i-1)))
			}
			// The oldest pair's pass also applies the newest pair's
			// initial Hessian scale.
			alphaBuf[0] = rho[slot(0)] * d
			d = axpyScaleDot(dir, -alphaBuf[0], yOf(slot(0)), gamma[newest], yOf(slot(0)))
			for i := 0; i < pairs-1; i++ {
				beta := float64(rho[slot(i)] * d)
				d = axpyScaleDot(dir, alphaBuf[i]-beta, sOf(slot(i)), 1, yOf(slot(i+1)))
			}
			// The newest pair's pass negates dir and takes gradᵀdir.
			beta := float64(rho[newest] * d)
			g0 = axpyScaleDot(dir, alphaBuf[pairs-1]-beta, sOf(newest), -1, grad)
		}

		// The two-loop direction is a descent direction whenever the
		// curvature pairs are valid; guard anyway and fall back to
		// steepest descent.
		if g0 >= 0 {
			scaleDot(dir, grad, -1, grad)
			g0 = -dot(grad, grad)
			pairs = 0
		}

		// Armijo backtracking line search.
		step := 1.0
		if pairs == 0 {
			// First step: scale to keep the initial move modest.
			if gn := math.Sqrt(-g0); gn > 1 {
				step = 1 / gn
			}
		}
		const c1 = 1e-4
		var lossNew float64
		ok := false
		for ls := 0; ls < 40; ls++ {
			for i := range x {
				xNew[i] = x[i] + float64(step*dir[i])
			}
			lossNew = f(xNew, gradNew)
			res.Evals++
			if lossNew <= loss+float64(c1*step*g0) {
				ok = true
				break
			}
			step *= 0.5
		}
		if !ok {
			// No productive step exists along this direction at any
			// representable scale; we are at numerical convergence.
			break
		}

		// Update history with the new curvature pair, dropping the
		// oldest once Memory pairs are live.
		free := (head + pairs) % slots
		s, y := sOf(free), yOf(free)
		var sy, yy float64
		gradNorm = 0
		for i := range x {
			s[i] = xNew[i] - x[i]
			y[i] = gradNew[i] - grad[i]
			sy += float64(s[i] * y[i])
			yy += float64(y[i] * y[i])
			gradNorm = maxAbs(gradNorm, gradNew[i])
		}
		if sy > 1e-12 {
			rho[free] = 1 / sy
			gamma[free] = sy / yy
			if pairs < opts.Memory {
				pairs++
			} else {
				head = (head + 1) % slots
			}
		}
		x, xNew = xNew, x
		grad, gradNew = gradNew, grad
		res.Iterations = iter + 1
		// Relative-progress stop: loss plateaued.
		if math.Abs(loss-lossNew) <= 1e-12*(1+math.Abs(loss)) {
			loss = lossNew
			res.Converged = true
			break
		}
		loss = lossNew
	}
	res.X = x
	res.Loss = loss
	return res
}

//ceres:allocfree
func dot(a, b []float64) float64 {
	var s float64
	b = b[:len(a)]
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// scaleDot sets dst = scale·src and returns nextᵀdst.
//
//ceres:allocfree
func scaleDot(dst, src []float64, scale float64, next []float64) float64 {
	var d float64
	src, next = src[:len(dst)], next[:len(dst)]
	for i := range dst {
		v := src[i] * scale
		dst[i] = v
		d += float64(next[i] * v)
	}
	return d
}

// axpyScaleDot sets a = (a + alpha·b)·scale and returns nextᵀa. A scale
// of 1 or -1 is exact, so it also serves as a plain or negated axpy.
//
//ceres:allocfree
func axpyScaleDot(a []float64, alpha float64, b []float64, scale float64, next []float64) float64 {
	var d float64
	b, next = b[:len(a)], next[:len(a)]
	for i := range a {
		v := (a[i] + float64(alpha*b[i])) * scale
		a[i] = v
		d += float64(next[i] * v)
	}
	return d
}

func infNorm(a []float64) float64 {
	var m float64
	for _, v := range a {
		m = maxAbs(m, v)
	}
	return m
}

// maxAbs returns |v| if it exceeds m, else m; a NaN v leaves m as it is.
func maxAbs(m, v float64) float64 {
	if v < 0 {
		v = -v
	}
	if v > m {
		return v
	}
	return m
}
