package mlr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

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
// the loss. x0 is not modified. It is the from-scratch stand-in for
// scipy's LBFGS, which scikit-learn's LogisticRegression (the paper's
// training step) calls, and it fitted this package's models until the
// trust-region Newton solver replaced it. It is frozen here as the
// reference a converged fit is held to (TestConvergedFitAgrees), pinned
// to the bit by TestMinimizeBitsPinned. Do not change it.
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

// naiveLossGrad is the per-example objective the weighted lossGrad
// replaced: every example scored on its own, logSumExp and the
// probabilities each taking their own exponentials. It is the test
// oracle — the weighted kernel must agree with it on any dataset — and
// lives nowhere outside the tests.
func naiveLossGrad(ds *Dataset, numFeatures int, theta, grad []float64, l2 float64) float64 {
	K := ds.NumClasses
	D := numFeatures
	W := theta[:K*D]
	B := theta[K*D:]
	for i := range grad {
		grad[i] = 0
	}
	gW := grad[:K*D]
	gB := grad[K*D:]

	var loss float64
	scores := make([]float64, K)
	for i, x := range ds.X {
		for k := 0; k < K; k++ {
			scores[k] = B[k] + x.Dot(W[k*D:(k+1)*D])
		}
		max := scores[0]
		for _, v := range scores[1:] {
			if v > max {
				max = v
			}
		}
		var sum float64
		for _, v := range scores {
			sum += math.Exp(v - max)
		}
		lse := max + math.Log(sum)
		loss += lse - scores[ds.Y[i]]
		for k := 0; k < K; k++ {
			coeff := math.Exp(scores[k] - lse)
			if k == ds.Y[i] {
				coeff -= 1
			}
			if coeff == 0 {
				continue
			}
			gB[k] += coeff
			row := gW[k*D : (k+1)*D]
			for _, f := range x {
				row[f.Index] += coeff * f.Value
			}
		}
	}
	for j, w := range W {
		loss += 0.5 * l2 * w * w
		gW[j] += l2 * w
	}
	return loss
}

// minimizeFingerprint hashes every bit of the point, the loss and the
// verdict Minimize returns.
func minimizeFingerprint(res LBFGSResult) uint64 {
	h := fnv.New64a()
	put := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
	for _, v := range res.X {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(res.Loss))
	if res.Converged {
		put(1)
	}
	return h.Sum64()
}

// TestMinimizeBitsPinned pins Minimize's results to the bit. The
// fingerprints were recorded from the implementation that allocated a
// fresh (s, y) pair per iteration and slid a growing history slice; the
// fixed ring that replaced it performs the same arithmetic in the same
// order, so they may not move. The fixtures cover a fit that converges
// before the history fills, one whose line search backtracks, and two
// that run long past Memory so the ring wraps many times.
func TestMinimizeBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints recorded on amd64; architectures that fuse multiply-add round differently")
	}
	quadratic := func(x, grad []float64) float64 {
		var loss float64
		for i := range x {
			d := x[i] - float64(i)
			loss += d * d
			grad[i] = 2 * d
		}
		return loss
	}
	rosenbrock := func(x, grad []float64) float64 {
		a, b := x[0], x[1]
		grad[0] = -2*(1-a) - 400*a*(b-a*a)
		grad[1] = 200 * (b - a*a)
		return (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
	}
	// Condition number 2500: far more iterations than Memory.
	illConditioned := func(x, grad []float64) float64 {
		var loss float64
		for i := range x {
			c := float64((i + 1) * (i + 1))
			d := x[i] - 1
			loss += c * d * d
			grad[i] = 2 * c * d
		}
		return loss
	}
	ds := synthDataset(200, 9)
	D := ds.NumFeatures()
	softmax := func(x, grad []float64) float64 {
		return naiveLossGrad(ds, D, x, grad, 0.5)
	}
	cases := []struct {
		name string
		f    func(x, grad []float64) float64
		x0   []float64
		opts LBFGSOptions
		want uint64
	}{
		{"quadratic", quadratic, make([]float64, 10), LBFGSOptions{}, 0xa9243cad38e4f163},
		{"rosenbrock", rosenbrock, []float64{-1.2, 1}, LBFGSOptions{MaxIter: 500, Tol: 1e-8}, 0x43c4a77c7f4ccf89},
		{"ill-conditioned", illConditioned, make([]float64, 50), LBFGSOptions{MaxIter: 300, Tol: 1e-9, Memory: 4}, 0xd443531114b5f6ba},
		{"softmax", softmax, make([]float64, ds.NumClasses*D+ds.NumClasses), LBFGSOptions{MaxIter: 60, Tol: 1e-9}, 0x1a64c3777f04992f},
	}
	for _, c := range cases {
		res := Minimize(c.f, c.x0, c.opts)
		if got := minimizeFingerprint(res); got != c.want {
			t.Errorf("%s: fingerprint %#x, want %#x (%d iterations, converged %v)",
				c.name, got, c.want, res.Iterations, res.Converged)
		}
	}
}
