package mlr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthDataset builds a linearly separable-ish 3-class problem: class k
// fires features in block k strongly, with some noise features shared.
func synthDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{NumClasses: 3}
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		var feats []Feature
		// Signal: 3 of 5 block features.
		for j := 0; j < 5; j++ {
			if rng.Float64() < 0.7 {
				feats = append(feats, Feature{Index: k*5 + j, Value: 1})
			}
		}
		// Noise features 15..19.
		for j := 15; j < 20; j++ {
			if rng.Float64() < 0.3 {
				feats = append(feats, Feature{Index: j, Value: 1})
			}
		}
		ds.Add(NewVector(feats), k)
	}
	return ds
}

// accuracy returns the fraction of examples whose most probable class
// under proba is their label.
func accuracy(proba func(Vector) []float64, ds *Dataset) float64 {
	correct := 0
	for i, x := range ds.X {
		p, best := proba(x), 0
		for k, v := range p {
			if v > p[best] {
				best = k
			}
		}
		if best == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

func TestTrainLBFGSLearnsSeparableData(t *testing.T) {
	ds := synthDataset(600, 42)
	m, _, err := Train(ds, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m.Proba, ds); acc < 0.9 {
		t.Errorf("training accuracy %.3f < 0.9", acc)
	}
	held := synthDataset(300, 77)
	if acc := accuracy(m.Proba, held); acc < 0.85 {
		t.Errorf("held-out accuracy %.3f < 0.85", acc)
	}
}

func TestTrainSGDComparable(t *testing.T) {
	ds := synthDataset(600, 42)
	m, _, err := Train(ds, TrainOptions{Optimizer: "sgd", Epochs: 40})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m.Proba, ds); acc < 0.85 {
		t.Errorf("SGD training accuracy %.3f < 0.85", acc)
	}
}

func TestNaiveBayes(t *testing.T) {
	ds := synthDataset(600, 42)
	nb := TrainNaiveBayes(ds)
	proba := func(x Vector) []float64 {
		p := make([]float64, nb.ClassCount())
		nb.ProbaInto(x, p)
		return p
	}
	if acc := accuracy(proba, ds); acc < 0.8 {
		t.Errorf("NB accuracy %.3f < 0.8", acc)
	}
	p := proba(ds.X[0])
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("NB probabilities sum to %v", sum)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, _, err := Train(&Dataset{}, TrainOptions{}); err == nil {
		t.Errorf("empty dataset should fail")
	}
	one := &Dataset{NumClasses: 1}
	one.Add(NewVector([]Feature{{0, 1}}), 0)
	if _, _, err := Train(one, TrainOptions{}); err == nil {
		t.Errorf("single class should fail")
	}
	bad := &Dataset{NumClasses: 2}
	bad.X = append(bad.X, NewVector([]Feature{{0, 1}}))
	bad.Y = append(bad.Y, 5)
	if _, _, err := Train(bad, TrainOptions{}); err == nil {
		t.Errorf("out-of-range label should fail")
	}
	ds := synthDataset(10, 1)
	if _, _, err := Train(ds, TrainOptions{Optimizer: "adagrad"}); err == nil {
		t.Errorf("unknown optimizer should fail")
	}
}

func TestProbaSumsToOne(t *testing.T) {
	ds := synthDataset(200, 9)
	m, _, err := Train(ds, TrainOptions{MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	f := func(idxs []uint16) bool {
		feats := make([]Feature, 0, len(idxs))
		for _, ix := range idxs {
			feats = append(feats, Feature{Index: int(ix) % 25, Value: 1})
		}
		p := m.Proba(NewVector(feats))
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLBFGSMinimizesQuadratic(t *testing.T) {
	// f(x) = Σ (x_i - i)^2 has minimum at x_i = i.
	f := func(x, grad []float64) float64 {
		var loss float64
		for i := range x {
			d := x[i] - float64(i)
			loss += d * d
			grad[i] = 2 * d
		}
		return loss
	}
	res := Minimize(f, make([]float64, 10), LBFGSOptions{})
	if !res.Converged {
		t.Errorf("quadratic should converge")
	}
	for i, v := range res.X {
		if math.Abs(v-float64(i)) > 1e-4 {
			t.Errorf("x[%d] = %v, want %d", i, v, i)
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	// The banana function, the classic line-search stress test.
	f := func(x, grad []float64) float64 {
		a, b := x[0], x[1]
		loss := (1-a)*(1-a) + 100*(b-a*a)*(b-a*a)
		grad[0] = -2*(1-a) - 400*a*(b-a*a)
		grad[1] = 200 * (b - a*a)
		return loss
	}
	res := Minimize(f, []float64{-1.2, 1}, LBFGSOptions{MaxIter: 500, Tol: 1e-8})
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock minimum missed: %v (loss %v, %d iters)", res.X, res.Loss, res.Iterations)
	}
}

func TestRegularizationShrinksWeights(t *testing.T) {
	ds := synthDataset(300, 3)
	loose, _, err := Train(ds, TrainOptions{L2: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	tight, _, err := Train(ds, TrainOptions{L2: 10})
	if err != nil {
		t.Fatal(err)
	}
	var nLoose, nTight float64
	for i := range loose.W {
		nLoose += loose.W[i] * loose.W[i]
		nTight += tight.W[i] * tight.W[i]
	}
	if nTight >= nLoose {
		t.Errorf("stronger L2 should shrink weights: %v vs %v", nTight, nLoose)
	}
}
