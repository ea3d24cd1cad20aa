package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"ceres/internal/dom"
	"ceres/internal/mlr"
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

// Proba returns the class distribution of field fi of a page streamed
// under featureStreamOptions(m.Featurizer.opts).
func (m *Model) Proba(sp *dom.StreamPage, fi int) []float64 {
	x := m.Featurizer.Features(sp, fi)
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

	var vecs exampleArena
	s := pageStreamer{opts: featureStreamOptions(fz.opts)}
	for _, pi := range pageIdxs {
		p := pages[pi]
		sp := s.stream(p)
		anns := perPage[pi]
		// skip marks the positives and, unless disabled, their likely
		// list siblings: neither is sampled as a negative.
		skip := make([]bool, len(p.Fields))
		if !opts.DisableListExclusion {
			listSiblingExclusions(skip, sp, anns)
		}
		for _, a := range anns {
			skip[a.FieldIdx] = true
		}
		// Positives.
		for _, a := range anns {
			ds.Add(vecs.features(fz, sp, a.FieldIdx), classes.Index(a.Predicate))
		}
		// Negatives: r per positive, sampled among unlabeled,
		// non-excluded fields.
		var candidates []int
		for fi := range p.Fields {
			if !skip[fi] {
				candidates = append(candidates, fi)
			}
		}
		want := opts.NegativeRatio * len(anns)
		if want > len(candidates) {
			want = len(candidates)
		}
		rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		for _, fi := range candidates[:want] {
			ds.Add(vecs.features(fz, sp, fi), OtherClass)
		}
	}
	return ds, classes
}

// listSiblingExclusions marks in excluded the fields of sp that likely
// belong to the same value list as a positive (§4.1: "we exclude other
// nodes that differ from these positives only at these indices, since
// they are likely to be part of the same list"). A predicate's positives
// must share one XPath shape — the same step names at every depth; the
// steps whose indices differ among them become wildcards, and every field
// whose XPath fits the pattern is excluded. Paths are compared on the
// records, step by step, without printing one.
func listSiblingExclusions(excluded []bool, sp *dom.StreamPage, anns []Annotation) {
	byPred := map[string][]int{}
	for _, a := range anns {
		byPred[a.Predicate] = append(byPred[a.Predicate], a.FieldIdx)
	}
	var pat pathPattern
	for _, pred := range sortedKeys(byPred) {
		fields := byPred[pred]
		if len(fields) < 2 {
			continue
		}
		var ok bool
		if pat, ok = generalizePaths(pat[:0], sp, fields); !ok {
			continue
		}
		for fi := range excluded {
			if ok, _ := pat.fit(sp, fi, false); ok {
				excluded[fi] = true
			}
		}
	}
}

// pathPattern is a field's absolute XPath with index wildcards, leaf step
// first: each step is the name it prints — text() or an element's tag, by
// its name ID — and the 1-based index it requires, or wildcard.
type pathPattern []pathStep

type pathStep struct {
	name, index int32
}

const (
	wildcard = -1
	textStep = -1 // the name of a text() step; tags have IDs from 0
)

// generalizePaths builds into pat the most specific pattern the XPaths of
// fields fit: every path must have the first's shape (ok is false
// otherwise), and a step becomes a wildcard where their indices differ. A
// pattern without a wildcard is not ok either — it excludes nothing a
// positive does not already cover.
func generalizePaths(pat pathPattern, sp *dom.StreamPage, fields []int) (_ pathPattern, ok bool) {
	pat = append(pat, pathStep{name: textStep, index: sp.FieldOrdinal(fields[0])})
	for e := sp.FieldParent(fields[0]); e != 0; e = sp.Parent(e) {
		pat = append(pat, pathStep{name: sp.NameID(e), index: sp.Ordinal(e)})
	}
	wild := false
	for _, fi := range fields[1:] {
		ok, widened := pat.fit(sp, fi, true)
		if !ok {
			return pat, false
		}
		wild = wild || widened
	}
	return pat, wild
}

// fit reports whether field fi's XPath has the pattern's step names and,
// unless widen is set, its indices. With widen, a step whose index differs
// becomes a wildcard instead, and widened reports whether one did.
func (pat pathPattern) fit(sp *dom.StreamPage, fi int, widen bool) (ok, widened bool) {
	name, index := int32(textStep), sp.FieldOrdinal(fi)
	e := sp.FieldParent(fi)
	for i := 0; ; i++ {
		if i == len(pat) || pat[i].name != name {
			return false, widened
		}
		if pat[i].index != wildcard && pat[i].index != index {
			if !widen {
				return false, widened
			}
			pat[i].index, widened = wildcard, true
		}
		if e == 0 {
			return i+1 == len(pat), widened
		}
		name, index = sp.NameID(e), sp.Ordinal(e)
		e = sp.Parent(e)
	}
}

// newClusterFit does everything of TrainModel that reads the dataset and
// can fail; fz must be frozen. Naive Bayes counts in closed form, so its
// whole fit happens here (only Stats.Examples is set).
func newClusterFit(ds *mlr.Dataset, classes *Classes, fz *Featurizer, opts TrainOptions) (*ClusterFit, error) {
	opts = opts.withDefaults()
	f := &ClusterFit{model: &Model{Classes: classes, Featurizer: fz}}
	if opts.Classifier == "nb" {
		f.model.NB = mlr.TrainNaiveBayes(ds)
		f.Stats = mlr.FitStats{Examples: ds.Len(), Converged: true}
		return f, nil
	}
	lr, err := mlr.Prepare(ds, opts.Model)
	if err != nil {
		return nil, err
	}
	f.lr = lr
	return f, nil
}

// fit runs the optimizer over the prepared rows, sets Stats and returns
// the cluster's model.
func (f *ClusterFit) fit() *Model {
	if f.lr != nil {
		probeTraining("fit")
		f.model.LR, f.Stats = f.lr.Run()
		f.lr = nil
	}
	return f.model
}

// TrainModel fits the classifier on the training set and reports how the
// fit went: a ClusterFit prepared and run back to back.
func TrainModel(ds *mlr.Dataset, classes *Classes, fz *Featurizer, opts TrainOptions) (*Model, mlr.FitStats, error) {
	f, err := newClusterFit(ds, classes, fz, opts)
	if err != nil {
		return nil, mlr.FitStats{}, err
	}
	m := f.fit()
	return m, f.Stats, nil
}

// trainingProbe is the package's test seam: when set, it is told where a
// training is — "parsed" once PrepareSite has clustered the pages, with
// every prepared page still reachable, and "fit" before each optimizer's
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
