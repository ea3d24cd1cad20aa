package mlr

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// templatedDataset generates what a templated site trains on: `distinct`
// random rows of nnz non-zeros over D features with a label in [0, K),
// repeated in random order until there are n examples. One value in four
// is not 1. Every row and every class appears at least once.
func templatedDataset(rng *rand.Rand, n, distinct, K, D, nnz int) *Dataset {
	xs := make([]Vector, distinct)
	ys := make([]int, distinct)
	for i := range xs {
		feats := make([]Feature, 0, nnz)
		for _, j := range rng.Perm(D)[:nnz] {
			v := 1.0
			if rng.Intn(4) == 0 {
				v = rng.Float64()*4 - 2
			}
			feats = append(feats, Feature{Index: j, Value: v})
		}
		xs[i] = NewVector(feats)
		ys[i] = i % K
	}
	ds := &Dataset{NumClasses: K}
	for i := 0; i < n; i++ {
		at := i
		if i >= distinct {
			at = rng.Intn(distinct)
		}
		ds.Add(xs[at], ys[at])
	}
	return ds
}

// columnCopies is n columns of m identical features each: the m fire
// together on a share of the rows, with one value a row. When value is
// not 0 it is every value of theirs; otherwise one value in four is not
// 1, as in templatedDataset.
type columnCopies struct {
	n, m  int
	share float64
	value float64
}

// crawlColumns is how the largest fit of the benchmark crawl (seed 1,
// 2,210 rows) lays out its 379 features: 244 columns, 213 of them one
// feature's own, and the templates' tags and classes in columns of up to
// 13 features; 31.8 non-zeros a row, 15.8 once identical columns are
// merged (70,282 → 34,866 over the fit).
var crawlColumns = []columnCopies{
	{n: 213, m: 1, share: 0.0592},
	{n: 10, m: 2, share: 0.113},
	{n: 4, m: 3, share: 0.0066},
	{n: 1, m: 4, share: 0.0005},
	{n: 1, m: 5, share: 0.0005},
	{n: 3, m: 6, share: 0.0009},
	{n: 2, m: 7, share: 0.295},
	{n: 3, m: 8, share: 0.0006},
	{n: 4, m: 9, share: 0.339},
	{n: 2, m: 10, share: 0.0233},
	{n: 1, m: 13, share: 0.0014},
}

// copiedDataset generates what a templated site trains on when its
// features co-occur: `distinct` random rows over columns laid out as
// copies says, every feature of every column at its own random index,
// with a label in [0, K), repeated in random order until there are n
// examples, as templatedDataset does. It also returns each feature's
// column, numbered in the order of copies.
func copiedDataset(rng *rand.Rand, n, distinct, K int, copies []columnCopies) (*Dataset, []int) {
	var cols []columnCopies
	var column []int
	for _, c := range copies {
		for range c.n {
			for range c.m {
				column = append(column, len(cols))
			}
			cols = append(cols, c)
		}
	}
	at := rng.Perm(len(column))
	featureColumn := make([]int, len(column))
	for i, j := range at {
		featureColumn[j] = column[i]
	}
	xs := make([]Vector, distinct)
	ys := make([]int, distinct)
	for i := range xs {
		var feats []Feature
		next := 0
		for _, c := range cols {
			index := at[next : next+c.m]
			next += c.m
			if rng.Float64() >= c.share {
				continue
			}
			v := c.value
			if v == 0 {
				v = 1
				if rng.Intn(4) == 0 {
					v = rng.Float64()*4 - 2
				}
			}
			for _, j := range index {
				feats = append(feats, Feature{Index: j, Value: v})
			}
		}
		xs[i] = NewVector(feats)
		ys[i] = i % K
	}
	ds := &Dataset{NumClasses: K}
	for i := 0; i < n; i++ {
		at := i
		if i >= distinct {
			at = rng.Intn(distinct)
		}
		ds.Add(xs[at], ys[at])
	}
	return ds, featureColumn
}

// featureMajor rearranges a class-major [W | B] parameter vector (the
// Model layout, which naiveLossGrad works in) into the feature-major
// layout of rows.lossGrad, or a gradient back when inverse is set.
func featureMajor(v []float64, K, D int, inverse bool) []float64 {
	out := make([]float64, len(v))
	for k := 0; k < K; k++ {
		for j := 0; j < D; j++ {
			if inverse {
				out[k*D+j] = v[j*K+k]
			} else {
				out[j*K+k] = v[k*D+j]
			}
		}
	}
	copy(out[K*D:], v[K*D:])
	return out
}

// softmaxBuf is a buffer for lossGrad's per-row softmax output.
func softmaxBuf(r *rows) []float64 { return make([]float64, len(r.x)*r.classes) }

func randomTheta(rng *rand.Rand, n int) []float64 {
	theta := make([]float64, n)
	for i := range theta {
		theta[i] = rng.Float64() - 0.5
	}
	return theta
}

// TestWeightedObjectiveMatchesNaive is the exactness claim: over rows
// duplicated 1–50×, the objective on collapsed rows with counts equals the
// per-example objective, loss and every gradient component, to rounding.
func TestWeightedObjectiveMatchesNaive(t *testing.T) {
	for _, K := range []int{2, 5, 8} {
		for _, dup := range []int{1, 3, 50} {
			rng := rand.New(rand.NewSource(int64(100*K + dup)))
			const distinct, D, nnz = 40, 30, 6
			ds := templatedDataset(rng, distinct*dup, distinct, K, D, nnz)
			D2 := ds.NumFeatures()
			n := K*D2 + K
			theta := randomTheta(rng, n)
			want := make([]float64, n)
			wantLoss := naiveLossGrad(ds, D2, theta, want, 0.7)

			r := collapse(ds)
			if r.features != D2 {
				t.Fatalf("K=%d dup=%d: %d features in %d columns; the fixture has identical columns", K, dup, D2, r.features)
			}
			if dup > 1 && len(r.x) >= ds.Len() {
				t.Fatalf("K=%d dup=%d: %d rows from %d examples, nothing collapsed", K, dup, len(r.x), ds.Len())
			}
			grad := make([]float64, n)
			gotLoss := r.lossGrad(featureMajor(theta, K, D2, false), grad, softmaxBuf(r), 0.7)
			got := featureMajor(grad, K, D2, true)

			if math.Abs(gotLoss-wantLoss) > 1e-12*(1+math.Abs(wantLoss)) {
				t.Errorf("K=%d dup=%d: loss %v, naive %v", K, dup, gotLoss, wantLoss)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Errorf("K=%d dup=%d: grad[%d] = %v, naive %v", K, dup, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGradientMatchesNumeric verifies the analytic gradient of the
// regularized NLL against central differences on a tiny problem whose
// rows carry counts above 1.
func TestGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := collapse(templatedDataset(rng, 40, 12, 3, 4, 2))
	heavy := false
	for _, c := range r.count {
		heavy = heavy || c > 1
	}
	if !heavy {
		t.Fatal("fixture has no row with a count above 1")
	}
	n := r.features*r.classes + r.classes
	theta := randomTheta(rng, n)
	grad, p := make([]float64, n), softmaxBuf(r)
	r.lossGrad(theta, grad, p, 0.7)

	const h = 1e-6
	scratch := make([]float64, n)
	for i := 0; i < n; i++ {
		orig := theta[i]
		theta[i] = orig + h
		lp := r.lossGrad(theta, scratch, p, 0.7)
		theta[i] = orig - h
		lm := r.lossGrad(theta, scratch, p, 0.7)
		theta[i] = orig
		numeric := (lp - lm) / (2 * h)
		if math.Abs(numeric-grad[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("grad[%d] = %v, numeric %v", i, grad[i], numeric)
		}
	}
}

func TestCollapse(t *testing.T) {
	a := NewVector([]Feature{{0, 1}, {3, 1}})
	aValue := NewVector([]Feature{{0, 1}, {3, 1.5}}) // differs from a in one value
	b := NewVector([]Feature{{1, 1}})
	ds := &Dataset{NumClasses: 3}
	for _, e := range []struct {
		x Vector
		y int
	}{{b, 2}, {a, 0}, {b, 2}, {a, 1}, {aValue, 0}, {a, 0}, {b, 2}, {nil, 1}, {nil, 1}} {
		ds.Add(e.x, e.y)
	}
	r := collapse(ds)
	wantX := []Vector{b, a, a, aValue, nil}
	wantY := []int{2, 0, 1, 0, 1}
	wantCount := []float64{3, 2, 1, 1, 2}
	if len(r.x) != len(wantX) {
		t.Fatalf("%d rows, want %d", len(r.x), len(wantX))
	}
	var total float64
	for i := range wantX {
		if !slices.Equal(r.x[i], wantX[i]) || r.y[i] != wantY[i] || r.count[i] != wantCount[i] {
			t.Errorf("row %d = (%v, %d) ×%v, want (%v, %d) ×%v", i, r.x[i], r.y[i], r.count[i], wantX[i], wantY[i], wantCount[i])
		}
		total += r.count[i]
	}
	if int(total) != ds.Len() {
		t.Errorf("counts sum to %v, want %d", total, ds.Len())
	}
}

// TestConvergedFitAgrees fits the same small problem to convergence from
// the duplicated example list, each example a row of its own, and from
// its collapsed rows. At Tol 1e-10 both fits end on the numerical stop and
// land on the same weights, so whatever difference an unconverged fit
// shows between them is the optimizer's path, not the objective. The fit
// is also held to the frozen L-BFGS reference over the per-example
// objective: it is a stationary point of that objective, and no higher on
// it than where L-BFGS stops.
func TestConvergedFitAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const K = 3
	ds := templatedDataset(rng, 300, 25, K, 12, 4)
	D := ds.NumFeatures()
	m, fit, err := Train(ds, TrainOptions{MaxIter: 5000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	dup := newTron(exampleRows(ds), 1)
	dup.run(5000, 1e-10)
	if !dup.stats.Converged || !fit.Converged {
		t.Fatalf("converged: duplicated %v, collapsed %v", dup.stats.Converged, fit.Converged)
	}
	if fit.Examples != 300 || fit.Rows != 25 || fit.Iters == 0 || fit.Evals <= fit.Iters || fit.HessVecs < fit.Iters {
		t.Errorf("fit stats %+v", fit)
	}
	if fit.GradNorm < 1e-10 {
		t.Errorf("fit stats %+v: ‖g‖∞ under Tol, so the fit did not end on the numerical stop", fit)
	}
	theta := append(append([]float64(nil), m.W...), m.B...)
	for i, w := range featureMajor(dup.w, K, D, true) {
		if math.Abs(theta[i]-w) > 1e-6 {
			t.Errorf("theta[%d] = %v from rows, %v from examples", i, theta[i], w)
		}
	}

	naive := func(x, grad []float64) float64 { return naiveLossGrad(ds, D, x, grad, 1) }
	ref := Minimize(naive, make([]float64, K*D+K), LBFGSOptions{MaxIter: 5000, Tol: 1e-10})
	grad := make([]float64, len(theta))
	loss := naive(theta, grad)
	if g := infNorm(grad); g >= 1e-5 || loss > ref.Loss {
		t.Errorf("per-example objective at the fit: loss %v, ‖g‖∞ %v; L-BFGS stops at loss %v", loss, g, ref.Loss)
	}
}

// exampleRows is ds uncollapsed: each example a row of its own, each
// feature a column of its own.
func exampleRows(ds *Dataset) *rows {
	K, D := ds.NumClasses, ds.NumFeatures()
	r := &rows{x: ds.X, y: ds.Y, count: make([]float64, ds.Len()), classes: K, features: D,
		column: make([]int, D), scale: make([]float64, D), e: make([]float64, K)}
	for i := range r.count {
		r.count[i] = 1
	}
	for j := range D {
		r.column[j], r.scale[j] = j, 1
	}
	return r
}

// TestMergedColumnsFitOriginalObjective holds a fit over merged columns
// to the objective over the dataset's own features, on columns copied two
// to five times, one copied column whose values are not 1, one feature
// in no row and one copied column in every row. The copies of a column
// get the same weight bits and the feature in no row weight 0; at the
// model, the per-example objective's gradient is under Tol, and its loss
// no higher than where the frozen L-BFGS reference stops.
func TestMergedColumnsFitOriginalObjective(t *testing.T) {
	const K = 4
	copies := []columnCopies{
		{n: 24, m: 1, share: 0.2},
		{n: 4, m: 2, share: 0.3},
		{n: 3, m: 3, share: 0.25},
		{n: 2, m: 4, share: 0.2},
		{n: 2, m: 5, share: 0.15},
		{n: 1, m: 3, share: 0.4, value: -0.75},
		{n: 1, m: 1, share: 0},
		{n: 1, m: 2, share: 1, value: 1},
	}
	const columns, empty = 38, 36 // the feature in no row is column 36
	ds, column := copiedDataset(rand.New(rand.NewSource(7)), 600, 90, K, copies)
	D := ds.NumFeatures()
	if D != len(column) {
		t.Fatalf("fixture: %d features in rows of %d, the one in no row is the last", D, len(column))
	}
	m, fit, err := Train(ds, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !fit.Converged || fit.Columns != columns || fit.Rows != 90 {
		t.Fatalf("fit stats %+v, want converged over %d columns and 90 rows", fit, columns)
	}
	first := make(map[int]int)
	for j, c := range column {
		f, ok := first[c]
		if !ok {
			f, first[c] = j, j
		}
		for k := range K {
			w := m.W[k*D+j]
			if math.Float64bits(w) != math.Float64bits(m.W[k*D+f]) {
				t.Errorf("class %d: feature %d weighs %v, %v in its column's feature %d", k, j, w, m.W[k*D+f], f)
			}
			if c == empty && w != 0 {
				t.Errorf("class %d: feature %d is in no row and weighs %v", k, j, w)
			}
		}
	}

	naive := func(x, grad []float64) float64 { return naiveLossGrad(ds, D, x, grad, 1) }
	ref := Minimize(naive, make([]float64, K*D+K), LBFGSOptions{MaxIter: 5000})
	theta := append(append([]float64(nil), m.W...), m.B...)
	grad := make([]float64, len(theta))
	loss := naive(theta, grad)
	if g := infNorm(grad); g >= 1e-5 || loss > ref.Loss {
		t.Errorf("per-example objective at the fit: loss %v, ‖g‖∞ %v; L-BFGS stops at loss %v", loss, g, ref.Loss)
	}
}

// fitAllocs counts the allocations of one fit of ds capped at maxIter
// iterations, and the iterations it took.
func fitAllocs(tb testing.TB, ds *Dataset, maxIter int) (allocs float64, iters int) {
	allocs = testing.AllocsPerRun(3, func() {
		_, fit, err := Train(ds, TrainOptions{MaxIter: maxIter})
		if err != nil {
			tb.Fatal(err)
		}
		iters = fit.Iters
	})
	return allocs, iters
}

// TestFitAllocsFlatInIterations: everything a fit allocates is allocated
// before the first step, so a longer fit allocates no more.
func TestFitAllocsFlatInIterations(t *testing.T) {
	ds := templatedDataset(rand.New(rand.NewSource(3)), 600, 60, 5, 40, 8)
	short, shortIters := fitAllocs(t, ds, 1)
	long, longIters := fitAllocs(t, ds, 40)
	if longIters <= shortIters {
		t.Fatalf("fixture too easy: %d and %d iterations", shortIters, longIters)
	}
	if long != short {
		t.Errorf("%v allocs over %d iterations, %v over %d", long, longIters, short, shortIters)
	}
}

// BenchmarkFit is one trust-region Newton fit, to convergence, at the
// shape of the benchmark crawl's largest fit: 6,000 examples that are
// 2,210 distinct rows over crawlColumns' 379 features in 244 columns, 8
// classes. columns/op counts the solver's columns, newton/op and
// hessvecs/op its Newton steps and its Hessian–vector products, one per
// conjugate-gradient step; allocs/iter is what each Newton step after
// the first adds to allocs/op.
func BenchmarkFit(b *testing.B) {
	ds, _ := copiedDataset(rand.New(rand.NewSource(1)), 6000, 2210, 8, crawlColumns)
	one, _ := fitAllocs(b, ds, 1)
	all, iters := fitAllocs(b, ds, 0)
	b.ReportAllocs()
	b.ResetTimer()
	var fit FitStats
	for i := 0; i < b.N; i++ {
		var err error
		if _, fit, err = Train(ds, TrainOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	if !fit.Converged {
		b.Fatalf("fit did not converge: %+v", fit)
	}
	b.ReportMetric(float64(fit.Rows), "rows/op")
	b.ReportMetric(float64(fit.Columns), "columns/op")
	b.ReportMetric(float64(fit.Iters), "newton/op")
	b.ReportMetric(float64(fit.HessVecs), "hessvecs/op")
	b.ReportMetric((all-one)/float64(iters-1), "allocs/iter")
}

// fitFingerprint hashes every bit of a trained model and the step,
// evaluation and Hessian–vector counts of its fit.
func fitFingerprint(m *Model, fit FitStats) uint64 {
	h := fnv.New64a()
	put := func(u uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, u)) }
	for _, v := range m.W {
		put(math.Float64bits(v))
	}
	for _, v := range m.B {
		put(math.Float64bits(v))
	}
	put(uint64(fit.Iters))
	put(uint64(fit.Evals))
	put(uint64(fit.HessVecs))
	return h.Sum64()
}

// TestFitBitsPinned pins Train to the bit at class counts that take every
// path of the register blocks of the objective and of the Hessian–vector
// product: two (the scalar remainder alone), five (a block of four, one
// left over), seven (four, three left over), eight (one block of eight),
// twelve (eight, then four) and sixteen (two blocks of eight). Those six
// datasets have no identical columns; their fingerprints were recorded
// when the trust-region Newton solver replaced L-BFGS, and the same
// solver over unblocked row-major kernels (the objective and the product
// each class by class, as rowMajorLossGrad and rowMajorHessVec compute
// them) gave the same bits. They held when identical columns became one
// parameter, whose last case, eight classes over crawlColumns, was
// recorded then.
func TestFitBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints recorded on amd64; architectures that fuse multiply-add round differently")
	}
	for _, c := range []struct {
		K      int
		copied bool
		want   uint64
	}{
		{2, false, 0xfeb6a896e523668d},
		{5, false, 0xdce6185881a6f022},
		{7, false, 0xf3347d6390e16a90},
		{8, false, 0x3bbb9a3fae4f3d8},
		{12, false, 0xea6f79fc2be0d168},
		{16, false, 0xcddd522520a2bcaa},
		{8, true, 0x5d348ca8bef57985},
	} {
		rng := rand.New(rand.NewSource(int64(c.K)))
		var ds *Dataset
		if c.copied {
			ds, _ = copiedDataset(rng, 900, 120, c.K, crawlColumns)
		} else {
			ds = templatedDataset(rng, 900, 120, c.K, 80, 9)
		}
		m, fit, err := Train(ds, TrainOptions{MaxIter: 60})
		if err != nil {
			t.Fatal(err)
		}
		if merged := fit.Columns < ds.NumFeatures(); merged != c.copied {
			t.Errorf("K=%d copied=%v: %d features in %d columns", c.K, c.copied, ds.NumFeatures(), fit.Columns)
		}
		if got := fitFingerprint(m, fit); got != c.want {
			t.Errorf("K=%d copied=%v: fingerprint %#x, want %#x (%d steps, %d evaluations, %d H·v)", c.K, c.copied, got, c.want, fit.Iters, fit.Evals, fit.HessVecs)
		}
	}
}
