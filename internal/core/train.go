package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"ceres/internal/mlr"
	"ceres/internal/xpath"
)

// TrainOptions configures example generation and model fitting (§4.1–4.2).
type TrainOptions struct {
	// NegativeRatio is r, the number of unlabeled nodes sampled as
	// "OTHER" examples per positive (§4.1: "Following convention in
	// distantly supervised text extraction, we choose r = 3").
	NegativeRatio int
	// Seed drives negative sampling.
	Seed int64
	// DisableListExclusion turns off the list-sibling exclusion of §4.1
	// (ablation 4 of DESIGN.md).
	DisableListExclusion bool
	// Model forwards to the classifier trainer; zero values take the
	// paper-faithful defaults (LBFGS, L2 with C=1).
	Model mlr.TrainOptions
	// Classifier selects "lr" (default) or "nb" for the classifier
	// ablation.
	Classifier string
}

func (o TrainOptions) withDefaults() TrainOptions {
	if o.NegativeRatio == 0 {
		o.NegativeRatio = 3
	}
	if o.Classifier == "" {
		o.Classifier = "lr"
	}
	return o
}

// OtherClass is class index 0: "no relation in our ontology".
const OtherClass = 0

// Classes maps predicate names to class indices. Index 0 is OTHER.
type Classes struct {
	names []string
	index map[string]int
}

// NewClasses builds the class space from the annotation set.
func NewClasses(anns []Annotation) *Classes {
	set := map[string]bool{}
	for _, a := range anns {
		set[a.Predicate] = true
	}
	names := make([]string, 0, len(set)+1)
	names = append(names, "OTHER")
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names[1:])
	c := &Classes{names: names, index: map[string]int{}}
	for i, n := range names {
		c.index[n] = i
	}
	return c
}

// ClassesFromNames rebuilds a class space from its serialized name list,
// preserving the exact index order the model was trained with.
func ClassesFromNames(names []string) (*Classes, error) {
	if len(names) == 0 || names[0] != "OTHER" {
		return nil, fmt.Errorf("core: class list must start with OTHER")
	}
	c := &Classes{names: append([]string(nil), names...), index: map[string]int{}}
	for i, n := range c.names {
		if _, dup := c.index[n]; dup {
			return nil, fmt.Errorf("core: duplicate class %q", n)
		}
		c.index[n] = i
	}
	return c, nil
}

// Index returns the class index of a predicate (OtherClass if unknown).
func (c *Classes) Index(pred string) int {
	if i, ok := c.index[pred]; ok {
		return i
	}
	return OtherClass
}

// Name returns the predicate of a class index.
func (c *Classes) Name(i int) string {
	if i < 0 || i >= len(c.names) {
		return "OTHER"
	}
	return c.names[i]
}

// Len returns the number of classes including OTHER.
func (c *Classes) Len() int { return len(c.names) }

// Names returns a copy of the class names.
func (c *Classes) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Model bundles a trained classifier with its feature and class spaces.
type Model struct {
	Classes    *Classes
	Featurizer *Featurizer
	// LR is the paper's classifier; NB replaces it when the ablation
	// selects naive Bayes.
	LR *mlr.Model
	NB *mlr.NaiveBayes
}

// Proba returns the class distribution for a field.
func (m *Model) Proba(f *Field) []float64 {
	x := m.Featurizer.Features(f)
	if m.NB != nil {
		return m.NB.Proba(x)
	}
	return m.LR.Proba(x)
}

// BuildExamples converts annotations into a labelled dataset: positives
// with their predicate class, plus r sampled negatives per positive,
// excluding likely list siblings of positives (§4.1).
func BuildExamples(pages []*Page, res *AnnotationResult, fz *Featurizer, opts TrainOptions) (*mlr.Dataset, *Classes) {
	opts = opts.withDefaults()
	classes := NewClasses(res.Annotations)
	ds := &mlr.Dataset{NumClasses: classes.Len()}
	rng := rand.New(rand.NewSource(opts.Seed + 17))

	// Group annotations per page.
	perPage := map[int][]Annotation{}
	for _, a := range res.Annotations {
		perPage[a.PageIdx] = append(perPage[a.PageIdx], a)
	}
	pageIdxs := make([]int, 0, len(perPage))
	for pi := range perPage {
		pageIdxs = append(pageIdxs, pi)
	}
	sort.Ints(pageIdxs)

	for _, pi := range pageIdxs {
		p := pages[pi]
		anns := perPage[pi]
		positive := map[int]bool{}
		for _, a := range anns {
			positive[a.FieldIdx] = true
		}
		excluded := map[int]bool{}
		if !opts.DisableListExclusion {
			excluded = listSiblingExclusions(p, anns)
		}
		// Positives.
		for _, a := range anns {
			ds.Add(fz.Features(p.Fields[a.FieldIdx]), classes.Index(a.Predicate))
		}
		// Negatives: r per positive, sampled among unlabeled,
		// non-excluded fields.
		var candidates []int
		for fi := range p.Fields {
			if !positive[fi] && !excluded[fi] {
				candidates = append(candidates, fi)
			}
		}
		want := opts.NegativeRatio * len(anns)
		if want > len(candidates) {
			want = len(candidates)
		}
		rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		for _, fi := range candidates[:want] {
			ds.Add(fz.Features(p.Fields[fi]), OtherClass)
		}
	}
	return ds, classes
}

// listSiblingExclusions finds unlabeled fields that likely belong to the
// same value list as a positive (§4.1: "we exclude other nodes that differ
// from these positives only at these indices, since they are likely to be
// part of the same list").
func listSiblingExclusions(p *Page, anns []Annotation) map[int]bool {
	byPred := map[string][]xpath.Path{}
	for _, a := range anns {
		byPred[a.Predicate] = append(byPred[a.Predicate], p.Fields[a.FieldIdx].Path)
	}
	excluded := map[int]bool{}
	for _, pred := range sortedKeys(byPred) {
		paths := byPred[pred]
		if len(paths) < 2 {
			continue
		}
		// Group same-shape paths, wildcard the differing indices.
		pattern, ok := xpath.Generalize(paths)
		if !ok || len(pattern.Wildcards()) == 0 {
			continue
		}
		for fi, f := range p.Fields {
			if pattern.Matches(f.Path) {
				excluded[fi] = true
			}
		}
	}
	return excluded
}

// PendingModel is a cluster classifier between the two halves of
// TrainModel: it holds the class space, the frozen featurizer and the
// training rows, and nothing of the dataset or the pages they came from.
type PendingModel struct {
	model *Model   // Classes and Featurizer set; naive Bayes already counted
	lr    *mlr.Fit // nil for naive Bayes
	stats mlr.FitStats
}

// PrepareModel does everything of TrainModel that reads the dataset and
// can fail; fz must be frozen. Naive Bayes counts in closed form, so its
// whole fit happens here (only FitStats.Examples is set).
func PrepareModel(ds *mlr.Dataset, classes *Classes, fz *Featurizer, opts TrainOptions) (*PendingModel, error) {
	opts = opts.withDefaults()
	p := &PendingModel{model: &Model{Classes: classes, Featurizer: fz}}
	if opts.Classifier == "nb" {
		p.model.NB = mlr.TrainNaiveBayes(ds)
		p.stats = mlr.FitStats{Examples: ds.Len(), Converged: true}
		return p, nil
	}
	lr, err := mlr.Prepare(ds, opts.Model)
	if err != nil {
		return nil, err
	}
	p.lr = lr
	return p, nil
}

// Fit runs the optimizer over the prepared rows and reports how it went.
func (p *PendingModel) Fit() (*Model, mlr.FitStats) {
	if p.lr != nil {
		probeTraining("fit")
		p.model.LR, p.stats = p.lr.Run()
		p.lr = nil
	}
	return p.model, p.stats
}

// TrainModel fits the classifier on the training set and reports how the
// fit went: PrepareModel and Fit back to back.
func TrainModel(ds *mlr.Dataset, classes *Classes, fz *Featurizer, opts TrainOptions) (*Model, mlr.FitStats, error) {
	p, err := PrepareModel(ds, classes, fz, opts)
	if err != nil {
		return nil, mlr.FitStats{}, err
	}
	m, fit := p.Fit()
	return m, fit, nil
}

// trainingProbe is the package's test seam: when set, it is told where a
// training is — "parsed" once PrepareSite has clustered the pages, with
// every parsed page still reachable, and "fit" before each optimizer's
// first objective evaluation. Production code never installs one.
var trainingProbe atomic.Pointer[func(phase string)]

// SetTrainingProbe installs f (nil removes it) for every training of the
// process and returns the function that puts the previous probe back. It
// exists for tests that measure what each half of training keeps alive.
func SetTrainingProbe(f func(phase string)) (restore func()) {
	var p *func(string)
	if f != nil {
		p = &f
	}
	prev := trainingProbe.Swap(p)
	return func() { trainingProbe.Store(prev) }
}

func probeTraining(phase string) {
	if f := trainingProbe.Load(); f != nil {
		(*f)(phase)
	}
}
