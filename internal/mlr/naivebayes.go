package mlr

import "math"

// NaiveBayes is a multinomial naive-Bayes classifier over sparse binary
// features, with Laplace smoothing. It participates in the
// classifier-choice ablation (§4.2: "We experimented with several
// classifiers, but ultimately found the best results by modeling ... as a
// multinomial logistic regression problem"), in memory only: it has no
// serialized form.
type NaiveBayes struct {
	NumClasses  int
	NumFeatures int
	logPrior    []float64
	// logProb[k*NumFeatures+j] is log P(feature j present | class k).
	logProb []float64
	// logAbsent[k] is Σ_j log P(feature j absent | class k), so scoring a
	// sparse vector costs O(nnz) instead of O(D).
	logAbsent []float64
	// logProbAbsent[k*NumFeatures+j] caches log P(feature j absent | k).
	logProbAbsent []float64
}

// TrainNaiveBayes fits the classifier with add-one smoothing.
func TrainNaiveBayes(ds *Dataset) *NaiveBayes {
	K := ds.NumClasses
	D := ds.NumFeatures()
	nb := &NaiveBayes{
		NumClasses:    K,
		NumFeatures:   D,
		logPrior:      make([]float64, K),
		logProb:       make([]float64, K*D),
		logAbsent:     make([]float64, K),
		logProbAbsent: make([]float64, K*D),
	}
	classCount := make([]float64, K)
	featCount := make([]float64, K*D)
	for i, x := range ds.X {
		k := ds.Y[i]
		classCount[k]++
		for _, f := range x {
			if f.Value != 0 {
				featCount[k*D+f.Index]++
			}
		}
	}
	total := float64(ds.Len())
	for k := 0; k < K; k++ {
		nb.logPrior[k] = math.Log((classCount[k] + 1) / (total + float64(K)))
		for j := 0; j < D; j++ {
			p := (featCount[k*D+j] + 1) / (classCount[k] + 2)
			nb.logProb[k*D+j] = math.Log(p)
			nb.logProbAbsent[k*D+j] = math.Log(1 - p)
			nb.logAbsent[k] += math.Log(1 - p)
		}
	}
	return nb
}

// ClassCount returns the number of classes the classifier scores.
func (nb *NaiveBayes) ClassCount() int { return nb.NumClasses }

// ProbaInto writes the posterior distribution over classes for x into s,
// which must have length NumClasses. No per-call allocation.
//
//ceres:allocfree
func (nb *NaiveBayes) ProbaInto(x Vector, s []float64) {
	for k := 0; k < nb.NumClasses; k++ {
		s[k] = nb.logPrior[k] + nb.logAbsent[k]
		for _, f := range x {
			if f.Value == 0 || f.Index >= nb.NumFeatures {
				continue
			}
			s[k] += nb.logProb[k*nb.NumFeatures+f.Index] - nb.logProbAbsent[k*nb.NumFeatures+f.Index]
		}
	}
	softmaxInPlace(s)
}
