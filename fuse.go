package ceres

import "ceres/internal/fusion"

// FusedFact is a triple aggregated across sites with combined belief.
type FusedFact = fusion.Fact

// FusionOptions tunes cross-site aggregation. SourcePriors assigns
// per-site reliability (default 0.7); Functional marks single-valued
// predicates whose competing objects must be resolved.
type FusionOptions = fusion.Options

// Fuser fuses observations one at a time, so a crawl-scale harvest can
// stream millions of extractions through fusion without materializing
// them: memory grows with the number of distinct facts and strings, not
// with the number of observations. Feed observations in a deterministic
// order when bit-reproducible beliefs matter (belief is a floating-point
// product over the observations of a fact). Facts may be called at any
// point and does not consume the accumulated state. A Fuser is not safe
// for concurrent use; one no longer needed is ordinary garbage.
type Fuser struct {
	acc *fusion.Accumulator
}

// NewFuser builds an empty streaming fuser over the fusion options.
func NewFuser(opts FusionOptions) *Fuser {
	return &Fuser{acc: fusion.NewAccumulator(opts)}
}

// ObserveTriple folds one extracted triple, credited to site, into the
// running aggregates.
func (f *Fuser) ObserveTriple(site string, t Triple) {
	f.acc.Add(fusion.Observation{
		Source:     site,
		Subject:    t.Subject,
		Predicate:  t.Predicate,
		Object:     t.Object,
		Confidence: t.Confidence,
	})
}

// Facts resolves the aggregates into fused facts, sorted by descending
// belief then subject/predicate/object.
func (f *Fuser) Facts() []FusedFact { return f.acc.Facts() }
