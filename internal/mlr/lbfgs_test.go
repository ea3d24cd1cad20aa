package mlr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

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
