package mlr

import "math/rand"

// trainSGD fits the model with mini-batch-free stochastic gradient descent
// and inverse-scaling learning-rate decay. It exists for the optimizer
// ablation; the default solves the paper's objective to its optimum by
// trust-region Newton.
func trainSGD(m *Model, ds *Dataset, opts TrainOptions) {
	K, D := m.NumClasses, m.NumFeatures
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	order := make([]int, ds.Len())
	for i := range order {
		order[i] = i
	}
	scores := make([]float64, K)
	n := float64(ds.Len())
	t := 0.0
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			t++
			lr := opts.LearningRate / (1 + opts.LearningRate*opts.L2*t/n)
			x := ds.X[i]
			for k := 0; k < K; k++ {
				scores[k] = m.B[k] + x.Dot(m.W[k*D:(k+1)*D])
			}
			softmaxInPlace(scores)
			for k := 0; k < K; k++ {
				coeff := scores[k]
				if k == ds.Y[i] {
					coeff -= 1
				}
				m.B[k] -= float64(lr * coeff)
				if coeff == 0 {
					continue
				}
				row := m.W[k*D : (k+1)*D]
				for _, f := range x {
					// Gradient of the per-example loss plus the 1/n share
					// of the L2 term touching this feature.
					row[f.Index] -= float64(lr * (float64(coeff*f.Value) + opts.L2*row[f.Index]/n))
				}
			}
		}
	}
}
