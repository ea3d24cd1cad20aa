package core

import (
	"math/rand"
	"sort"

	"ceres/internal/kb"
	"ceres/internal/mlr"
	"ceres/internal/strmatch"
)

// This file implements CERES-BASELINE (§5.2): distant supervision under
// the original assumption — no topic entity, no Algorithm 1/2. Annotation
// labels *pairs* of nodes whose entities hold a KB relation; the
// classifier scores node pairs (features of both nodes concatenated); at
// extraction time candidate nodes are those that string-match KB entities,
// as the paper does to escape the all-pairs blowup.

// BaselineOptions tunes the pairwise baseline.
type BaselineOptions struct {
	// MaxFieldsPerPage caps the entity-bearing fields considered per page
	// (the quadratic pair space is the reason the paper's run exhausted
	// 32 GB on the movie vertical; the cap makes the baseline runnable
	// while preserving its behaviour).
	MaxFieldsPerPage int
	// MaxPairsPerPage caps labelled pairs per page.
	MaxPairsPerPage int
	// NegativeRatio is r, as for CERES.
	NegativeRatio int
	Seed          int64
	Features      FeatureOptions
	Model         mlr.TrainOptions
	// NameThresholdless extraction: every pair above ExtractThreshold is
	// kept; the subject is the first node's text.
	ExtractThreshold float64
}

func (o BaselineOptions) withDefaults() BaselineOptions {
	if o.MaxFieldsPerPage == 0 {
		o.MaxFieldsPerPage = 60
	}
	if o.MaxPairsPerPage == 0 {
		o.MaxPairsPerPage = 400
	}
	if o.NegativeRatio == 0 {
		o.NegativeRatio = 3
	}
	if o.ExtractThreshold == 0 {
		o.ExtractThreshold = 0.5
	}
	return o
}

// pairFeaturizer concatenates the features of two nodes in disjoint
// namespaces. It streams the page the two fields are on, so a caller
// featurizing one page's pairs in a row streams it once.
type pairFeaturizer struct {
	fz   *Featurizer
	dict *mlr.Dict
	s    pageStreamer
}

func newPairFeaturizer(pages []*Page, opts FeatureOptions) *pairFeaturizer {
	fz := NewFeaturizer(pages, opts)
	return &pairFeaturizer{fz: fz, dict: mlr.NewDict(), s: pageStreamer{opts: featureStreamOptions(fz.opts)}}
}

// features featurizes the pair of p's fields a and b.
func (pf *pairFeaturizer) features(p *Page, a, b int) mlr.Vector {
	sp := pf.s.stream(p)
	var feats []mlr.Feature
	for _, side := range []struct {
		tag string
		fi  int
	}{{"A", a}, {"B", b}} {
		for _, feat := range pf.fz.Features(sp, side.fi) {
			name := side.tag + "|" + pf.fz.dict.Name(feat.Index)
			if id := pf.dict.ID(name); id >= 0 {
				feats = append(feats, mlr.Feature{Index: id, Value: feat.Value})
			}
		}
	}
	return mlr.NewVector(feats)
}

// BaselineModel is the trained pairwise extractor.
type BaselineModel struct {
	classes *Classes
	pf      *pairFeaturizer
	lr      *mlr.Model
	opts    BaselineOptions
}

// entityFields returns the indices of fields matching at least one KB
// entity or literal object, capped. (The paper identifies "potential
// entities on the page by string matching against the KB".)
func entityFields(p *Page, K *kb.KB, cap int) []int {
	var out []int
	for fi, f := range p.Fields {
		if len(K.LookupEntities(f.Text)) > 0 || K.HasLiteral(f.Text) {
			out = append(out, fi)
			if len(out) == cap {
				break
			}
		}
	}
	return out
}

// TrainBaseline annotates node pairs under the original DS assumption and
// fits the pair classifier.
func TrainBaseline(pages []*Page, K *kb.KB, opts BaselineOptions) (*BaselineModel, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed + 23))
	pf := newPairFeaturizer(pages, opts.Features)

	type pairAnn struct {
		pageIdx, a, b int
		pred          string
	}
	var positives []pairAnn
	for pi, p := range pages {
		fields := entityFields(p, K, opts.MaxFieldsPerPage)
		// Entity candidates per field.
		cands := map[int][]string{}
		for _, fi := range fields {
			cands[fi] = K.LookupEntities(p.Fields[fi].Text)
		}
		count := 0
		for _, a := range fields {
			for _, b := range fields {
				if a == b || count >= opts.MaxPairsPerPage {
					continue
				}
				pred, ok := relationBetween(K, cands[a], cands[b], p.Fields[b].Text)
				if !ok {
					continue
				}
				positives = append(positives, pairAnn{pageIdx: pi, a: a, b: b, pred: pred})
				count++
			}
		}
	}
	if len(positives) == 0 {
		return nil, nil
	}
	anns := make([]Annotation, len(positives))
	for i, pa := range positives {
		anns[i] = Annotation{Predicate: pa.pred}
	}
	classes := NewClasses(anns)
	ds := &mlr.Dataset{NumClasses: classes.Len()}
	for _, pa := range positives {
		p := pages[pa.pageIdx]
		ds.Add(pf.features(p, pa.a, pa.b), classes.Index(pa.pred))
	}
	// Negatives: random entity-field pairs with no KB relation.
	want := opts.NegativeRatio * len(positives)
	tries := 0
	for added := 0; added < want && tries < want*20; tries++ {
		p := pages[rng.Intn(len(pages))]
		fields := entityFields(p, K, opts.MaxFieldsPerPage)
		if len(fields) < 2 {
			continue
		}
		a := fields[rng.Intn(len(fields))]
		b := fields[rng.Intn(len(fields))]
		if a == b {
			continue
		}
		if _, ok := relationBetween(K, K.LookupEntities(p.Fields[a].Text), K.LookupEntities(p.Fields[b].Text), p.Fields[b].Text); ok {
			continue
		}
		ds.Add(pf.features(p, a, b), OtherClass)
		added++
	}
	pf.fz.Freeze()
	pf.dict.Freeze()
	lr, _, err := mlr.Train(ds, opts.Model)
	if err != nil {
		return nil, err
	}
	return &BaselineModel{classes: classes, pf: pf, lr: lr, opts: opts}, nil
}

// relationBetween returns a predicate holding between any entity candidate
// of node a and node b — where b may denote either an entity or a literal
// object — deterministically preferring the lexicographically first.
func relationBetween(K *kb.KB, as, bs []string, bText string) (string, bool) {
	bSet := map[string]bool{}
	for _, b := range bs {
		bSet[b] = true
	}
	bNorm := strmatch.Normalize(bText)
	var preds []string
	for _, a := range as {
		for _, t := range K.TriplesOf(a) {
			if t.Object.IsEntity() {
				if bSet[t.Object.EntityID] {
					preds = append(preds, t.Predicate)
				}
			} else if bNorm != "" && strmatch.Normalize(t.Object.Literal) == bNorm {
				preds = append(preds, t.Predicate)
			}
		}
	}
	if len(preds) == 0 {
		return "", false
	}
	sort.Strings(preds)
	return preds[0], true
}

// ExtractBaseline applies the pair classifier to candidate pairs of a
// page. The subject of an extraction is the first node's text.
func ExtractBaseline(p *Page, K *kb.KB, m *BaselineModel) []Extraction {
	if m == nil {
		return nil
	}
	fields := entityFields(p, K, m.opts.MaxFieldsPerPage)
	var out []Extraction
	pairs := 0
	for _, a := range fields {
		for _, b := range fields {
			if a == b || pairs >= m.opts.MaxPairsPerPage {
				continue
			}
			pairs++
			proba := m.lr.Proba(m.pf.features(p, a, b))
			cls, prob := argmax(proba)
			if cls == OtherClass || prob < m.opts.ExtractThreshold {
				continue
			}
			out = append(out, Extraction{
				PageID:     p.ID,
				Subject:    p.Fields[a].Text,
				Predicate:  m.classes.Name(cls),
				Value:      p.Fields[b].Text,
				Confidence: prob,
				Path:       p.Fields[b].PathString,
			})
		}
	}
	return out
}
