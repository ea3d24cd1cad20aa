package mlr

import "fmt"

// This file provides the state types that let trained classifiers persist
// across processes. States carry only
// exported, plain-data fields, which the site-model codec
// (internal/binmodel) writes and reads; Restore* rebuilds the live
// object and validates shape invariants so a corrupted or truncated
// state fails loudly instead of mis-scoring.

// Validate checks a Model's internal shape consistency (Model's fields are
// already exported, so it serializes directly; this guards deserialized
// instances).
func (m *Model) Validate() error {
	if m.NumClasses < 2 || m.NumFeatures < 0 {
		return fmt.Errorf("mlr: model has %d classes, %d features", m.NumClasses, m.NumFeatures)
	}
	if len(m.W) != m.NumClasses*m.NumFeatures {
		return fmt.Errorf("mlr: weight matrix has %d entries, want %d", len(m.W), m.NumClasses*m.NumFeatures)
	}
	if len(m.B) != m.NumClasses {
		return fmt.Errorf("mlr: intercept vector has %d entries, want %d", len(m.B), m.NumClasses)
	}
	return nil
}

// NaiveBayesState is the serializable form of a NaiveBayes classifier.
type NaiveBayesState struct {
	NumClasses    int
	NumFeatures   int
	LogPrior      []float64
	LogProb       []float64
	LogAbsent     []float64
	LogProbAbsent []float64
}

// State snapshots the classifier.
func (nb *NaiveBayes) State() NaiveBayesState {
	return NaiveBayesState{
		NumClasses:    nb.NumClasses,
		NumFeatures:   nb.NumFeatures,
		LogPrior:      append([]float64(nil), nb.logPrior...),
		LogProb:       append([]float64(nil), nb.logProb...),
		LogAbsent:     append([]float64(nil), nb.logAbsent...),
		LogProbAbsent: append([]float64(nil), nb.logProbAbsent...),
	}
}

// RestoreNaiveBayes rebuilds a classifier from its state.
func RestoreNaiveBayes(st NaiveBayesState) (*NaiveBayes, error) {
	if st.NumClasses < 1 || st.NumFeatures < 0 {
		return nil, fmt.Errorf("mlr: naive bayes state has %d classes, %d features", st.NumClasses, st.NumFeatures)
	}
	kd := st.NumClasses * st.NumFeatures
	if len(st.LogProb) != kd || len(st.LogProbAbsent) != kd ||
		len(st.LogPrior) != st.NumClasses || len(st.LogAbsent) != st.NumClasses {
		return nil, fmt.Errorf("mlr: naive bayes state tables do not match %d classes x %d features",
			st.NumClasses, st.NumFeatures)
	}
	return &NaiveBayes{
		NumClasses:    st.NumClasses,
		NumFeatures:   st.NumFeatures,
		logPrior:      append([]float64(nil), st.LogPrior...),
		logProb:       append([]float64(nil), st.LogProb...),
		logAbsent:     append([]float64(nil), st.LogAbsent...),
		logProbAbsent: append([]float64(nil), st.LogProbAbsent...),
	}, nil
}
