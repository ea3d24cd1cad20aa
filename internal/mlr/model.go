package mlr

import (
	"fmt"
	"math"
)

// Model is a trained multinomial logistic-regression classifier. The
// paper's §4.2 formulation pins one reference class; we use the standard
// unpinned softmax parametrization, which defines the same family of
// distributions.
type Model struct {
	NumClasses  int
	NumFeatures int
	// W holds per-class weight rows, flattened: weight of feature j for
	// class k is W[k*NumFeatures+j].
	W []float64
	// B holds per-class intercepts (the paper's βk0).
	B []float64
}

// Scorer is the serving-side contract the classifiers share: score a
// sparse vector into a caller-provided buffer of ClassCount probabilities,
// allocating nothing. Both the logistic-regression Model (the paper's
// classifier) and NaiveBayes (the ablation) implement it, so a compiled
// extraction pipeline serves either.
type Scorer interface {
	ClassCount() int
	ProbaInto(x Vector, out []float64)
}

var (
	_ Scorer = (*Model)(nil)
	_ Scorer = (*NaiveBayes)(nil)
)

// ClassCount returns the number of classes the model scores.
func (m *Model) ClassCount() int { return m.NumClasses }

// ScoresInto writes the raw linear scores (logits) for each class into
// out, which must have length NumClasses. This is the dense-weight fast
// path: no per-call allocation.
//
//ceres:allocfree
func (m *Model) ScoresInto(x Vector, out []float64) {
	for k := 0; k < m.NumClasses; k++ {
		row := m.W[k*m.NumFeatures : (k+1)*m.NumFeatures]
		out[k] = m.B[k] + x.Dot(row)
	}
}

// ProbaInto writes the posterior distribution over classes into out, which
// must have length NumClasses.
//
//ceres:allocfree
func (m *Model) ProbaInto(x Vector, out []float64) {
	m.ScoresInto(x, out)
	softmaxInPlace(out)
}

// TransposedModel is the serve-form of Model: the same classifier with
// its weight matrix stored feature-major, so one pass over a sparse
// vector scores every class at once — per feature, the per-class weights
// are one contiguous read instead of NumClasses strided row accesses.
// Scores are bit-identical to Model's: per class, features accumulate in
// vector order and the intercept joins last, the exact addition sequence
// ScoresInto performs.
type TransposedModel struct {
	classes int
	feats   int
	wt      []float64 // wt[j*classes+k] == W[k*feats+j]
	b       []float64
}

// Transpose builds the feature-major serving form of the model.
func (m *Model) Transpose() *TransposedModel {
	t := &TransposedModel{
		classes: m.NumClasses,
		feats:   m.NumFeatures,
		wt:      make([]float64, m.NumClasses*m.NumFeatures),
		b:       m.B,
	}
	for k := 0; k < m.NumClasses; k++ {
		row := m.W[k*m.NumFeatures : (k+1)*m.NumFeatures]
		for j, w := range row {
			t.wt[j*m.NumClasses+k] = w
		}
	}
	return t
}

// ClassCount returns the number of classes the model scores.
func (t *TransposedModel) ClassCount() int { return t.classes }

// ScoresInto writes the raw linear scores (logits) for each class into
// out, which must have length ClassCount.
//
//ceres:allocfree
func (t *TransposedModel) ScoresInto(x Vector, out []float64) {
	clear(out)
	C := t.classes
	for _, f := range x {
		if f.Index >= t.feats {
			continue // unseen feature, as Vector.Dot ignores it
		}
		col := t.wt[f.Index*C : f.Index*C+C]
		v := f.Value
		for k, w := range col {
			out[k] += float64(v * w)
		}
	}
	for k := range out {
		out[k] += t.b[k]
	}
}

// ProbaInto writes the posterior distribution over classes into out,
// which must have length ClassCount.
//
//ceres:allocfree
func (t *TransposedModel) ProbaInto(x Vector, out []float64) {
	t.ScoresInto(x, out)
	softmaxInPlace(out)
}

var _ Scorer = (*TransposedModel)(nil)

// Proba returns the posterior distribution over classes.
func (m *Model) Proba(x Vector) []float64 {
	s := make([]float64, m.NumClasses)
	m.ProbaInto(x, s)
	return s
}

// softmaxInPlace converts logits to probabilities with the max-subtraction
// trick for numerical stability.
//
//ceres:allocfree
func softmaxInPlace(s []float64) {
	max := s[0]
	for _, v := range s[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range s {
		e := math.Exp(v - max)
		s[i] = e
		sum += e
	}
	for i := range s {
		s[i] /= sum
	}
}

// TrainOptions configures Train.
type TrainOptions struct {
	// L2 is the regularization strength λ applied to weights (not
	// intercepts); scikit-learn's C maps to λ = 1/C, and the paper's C=1
	// is the default λ = 1.
	L2 float64
	// MaxIter bounds the trust-region Newton steps (default 200).
	MaxIter int
	// Tol is the convergence tolerance on the gradient infinity norm
	// (default 1e-5).
	Tol float64
	// Optimizer selects "tron" (default), the trust-region Newton method
	// of LIBLINEAR, or "sgd", for the optimizer ablation.
	Optimizer string
	// LearningRate and Epochs apply to the SGD optimizer only.
	LearningRate float64
	Epochs       int
	// Seed drives SGD shuffling.
	Seed int64
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.L2 == 0 {
		o.L2 = 1
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200
	}
	if o.Tol == 0 {
		o.Tol = 1e-5
	}
	if o.Optimizer == "" {
		o.Optimizer = "tron"
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
	if o.Epochs == 0 {
		o.Epochs = 50
	}
	return o
}

// Fit is a training set between the two halves of Train: validated, and —
// for the Newton solver — already collapsed to its distinct rows over its
// distinct columns, so it no longer references the Dataset it came from
// (the rows are copied into one array of their own; the examples are
// garbage once the caller drops the dataset). What is left for Run is the
// optimizer.
type Fit struct {
	opts                        TrainOptions
	classes, features, examples int
	rows                        *rows    // "tron"
	ds                          *Dataset // "sgd" walks the examples themselves
}

// Prepare validates ds and opts and does everything of Train that needs
// the dataset.
func Prepare(ds *Dataset, opts TrainOptions) (*Fit, error) {
	opts = opts.withDefaults()
	if ds.Len() == 0 {
		return nil, fmt.Errorf("mlr: empty dataset")
	}
	if ds.NumClasses < 2 {
		return nil, fmt.Errorf("mlr: need at least 2 classes, have %d", ds.NumClasses)
	}
	for i, y := range ds.Y {
		if y < 0 || y >= ds.NumClasses {
			return nil, fmt.Errorf("mlr: label %d of example %d out of range", y, i)
		}
	}
	f := &Fit{opts: opts, classes: ds.NumClasses, features: ds.NumFeatures(), examples: ds.Len()}
	switch opts.Optimizer {
	case "tron":
		f.rows = collapse(ds)
	case "sgd":
		f.ds = ds
	default:
		return nil, fmt.Errorf("mlr: unknown optimizer %q", opts.Optimizer)
	}
	return f, nil
}

// Run runs the optimizer and reports how the fit went.
func (f *Fit) Run() (*Model, FitStats) {
	m := &Model{
		NumClasses:  f.classes,
		NumFeatures: f.features,
	}
	m.W = make([]float64, m.NumClasses*m.NumFeatures)
	m.B = make([]float64, m.NumClasses)
	if f.rows != nil {
		return m, trainTron(m, f.rows, f.examples, f.opts)
	}
	trainSGD(m, f.ds, f.opts)
	return m, FitStats{Examples: f.examples, Rows: f.examples, Columns: f.features, Iters: f.opts.Epochs, Converged: true}
}

// Train fits a multinomial logistic-regression model on ds and reports
// how the fit went: Prepare and Run back to back.
func Train(ds *Dataset, opts TrainOptions) (*Model, FitStats, error) {
	f, err := Prepare(ds, opts)
	if err != nil {
		return nil, FitStats{}, err
	}
	m, fit := f.Run()
	return m, fit, nil
}
