package mlr

import "fmt"

// Validate checks a Model's internal shape consistency. Model's fields are
// exported, so the site-model codec (internal/binmodel) writes and reads
// it directly; this guards a decoded one, so a corrupted or truncated
// state fails loudly instead of mis-scoring.
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
