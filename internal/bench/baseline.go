package bench

import (
	"math/rand"
	"slices"

	"ceres/internal/core"
	"ceres/internal/kb"
	"ceres/internal/mlr"
	"ceres/internal/strmatch"
)

// This file implements CERES-BASELINE (§5.2), Table 3's comparison system:
// distant supervision under the original assumption — no topic entity, no
// Algorithm 1/2. Annotation labels *pairs* of nodes whose KB items hold a
// relation; the classifier scores node pairs (features of both nodes
// concatenated); at extraction time candidate nodes are those that
// string-match KB items, as the paper does to escape the all-pairs blowup.

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
	Features      core.FeatureOptions
	Model         mlr.TrainOptions
	// ExtractThreshold: every pair above it is kept; the subject is the
	// first node's text.
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
// namespaces: pair feature IDs are numbered per (side, node feature) on
// first sight, until frozen. It holds the node vectors of the fields of
// the page it last featurized, so a page's pairs featurize each field
// once.
type pairFeaturizer struct {
	fz *core.Featurizer
	// ids[side][node feature] is the pair feature ID.
	ids    [2]map[int]int
	n      int
	frozen bool
	page   *core.Page
	vecs   map[int]mlr.Vector
}

func newPairFeaturizer(pages []*core.Page, opts core.FeatureOptions) *pairFeaturizer {
	return &pairFeaturizer{
		fz:   core.NewFeaturizer(pages, opts),
		ids:  [2]map[int]int{{}, {}},
		vecs: map[int]mlr.Vector{},
	}
}

// load featurizes, in order and in one stream of p, those of p's fields
// fis it holds no vector for, first dropping another page's vectors. The
// order is the order the node featurizer numbers new features in.
func (pf *pairFeaturizer) load(p *core.Page, fis ...int) {
	if p != pf.page {
		pf.page = p
		clear(pf.vecs)
	}
	var miss []int
	for _, fi := range fis {
		if _, ok := pf.vecs[fi]; !ok && !slices.Contains(miss, fi) {
			miss = append(miss, fi)
		}
	}
	if len(miss) == 0 {
		return
	}
	for i, v := range pf.fz.Features(p, miss) {
		pf.vecs[miss[i]] = v
	}
}

// features featurizes the pair of p's fields a and b.
func (pf *pairFeaturizer) features(p *core.Page, a, b int) mlr.Vector {
	pf.load(p, a, b)
	var feats []mlr.Feature
	for side, fi := range [2]int{a, b} {
		for _, feat := range pf.vecs[fi] {
			id, ok := pf.ids[side][feat.Index]
			if !ok {
				if pf.frozen {
					continue
				}
				id = pf.n
				pf.n++
				pf.ids[side][feat.Index] = id
			}
			feats = append(feats, mlr.Feature{Index: id, Value: feat.Value})
		}
	}
	return mlr.NewVector(feats)
}

// BaselineModel is the trained pairwise extractor.
type BaselineModel struct {
	classes *core.Classes
	pf      *pairFeaturizer
	lr      *mlr.Model
	opts    BaselineOptions
}

// entityFields returns the indices of p's fields that may denote a KB
// item (the paper identifies "potential entities on the page by string
// matching against the KB"), capped, and each one's candidate items.
func entityFields(p *core.Page, ix *kb.Index, cap int) (fields []int, cands [][]kb.ItemID) {
	var tok []byte
	for fi, f := range p.Fields {
		tok = strmatch.AppendTokenSetKey(tok[:0], f.Norm)
		c := ix.AppendCandidates(nil, kb.FieldKey{Norm: f.Norm, TokenKey: string(tok)})
		if len(c) == 0 {
			continue
		}
		fields, cands = append(fields, fi), append(cands, c)
		if len(fields) == cap {
			break
		}
	}
	return fields, cands
}

// TrainBaseline annotates node pairs under the original DS assumption and
// fits the pair classifier.
func TrainBaseline(pages []*core.Page, ix *kb.Index, opts BaselineOptions) (*BaselineModel, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed + 23))
	pf := newPairFeaturizer(pages, opts.Features)

	type pairAnn struct {
		pageIdx, a, b int
		pred          string
	}
	var positives []pairAnn
	for pi, p := range pages {
		fields, cands := entityFields(p, ix, opts.MaxFieldsPerPage)
		count := 0
		for i, a := range fields {
			for j, b := range fields {
				if a == b || count >= opts.MaxPairsPerPage {
					continue
				}
				pred, ok := relationBetween(ix, cands[i], cands[j])
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
	anns := make([]core.Annotation, len(positives))
	for i, pa := range positives {
		anns[i] = core.Annotation{Predicate: pa.pred}
	}
	classes := core.NewClasses(anns)
	ds := &mlr.Dataset{NumClasses: classes.Len()}
	for i, pa := range positives {
		p := pages[pa.pageIdx]
		if i == 0 || positives[i-1].pageIdx != pa.pageIdx {
			// One stream for the page's pairs, its fields in the order the
			// pairs meet them.
			var fis []int
			for _, q := range positives[i:] {
				if q.pageIdx != pa.pageIdx {
					break
				}
				fis = append(fis, q.a, q.b)
			}
			pf.load(p, fis...)
		}
		ds.Add(pf.features(p, pa.a, pa.b), classes.Index(pa.pred))
	}
	// Negatives: random entity-field pairs with no KB relation.
	want := opts.NegativeRatio * len(positives)
	tries := 0
	for added := 0; added < want && tries < want*20; tries++ {
		p := pages[rng.Intn(len(pages))]
		fields, cands := entityFields(p, ix, opts.MaxFieldsPerPage)
		if len(fields) < 2 {
			continue
		}
		i := rng.Intn(len(fields))
		j := rng.Intn(len(fields))
		if i == j {
			continue
		}
		if _, ok := relationBetween(ix, cands[i], cands[j]); ok {
			continue
		}
		ds.Add(pf.features(p, fields[i], fields[j]), core.OtherClass)
		added++
	}
	pf.fz.Freeze()
	pf.frozen = true
	lr, _, err := mlr.Train(ds, opts.Model)
	if err != nil {
		return nil, err
	}
	return &BaselineModel{classes: classes, pf: pf, lr: lr, opts: opts}, nil
}

// relationBetween returns a predicate relating an entity candidate of node
// a to a candidate item of node b — an entity, or the literal whose norm
// is b's — preferring the lexicographically first.
func relationBetween(ix *kb.Index, as, bs []kb.ItemID) (string, bool) {
	pred, ok := "", false
	for _, a := range as {
		for _, r := range ix.Relations(a) {
			if _, hit := slices.BinarySearch(bs, r.Obj); !hit {
				continue
			}
			if p := ix.Predicate(r.Pred); !ok || p < pred {
				pred, ok = p, true
			}
		}
	}
	return pred, ok
}

// ExtractBaseline applies the pair classifier to candidate pairs of a
// page. The subject of an extraction is the first node's text.
func ExtractBaseline(p *core.Page, ix *kb.Index, m *BaselineModel) []core.Extraction {
	if m == nil {
		return nil
	}
	fields, _ := entityFields(p, ix, m.opts.MaxFieldsPerPage)
	m.pf.load(p, fields...)
	var out []core.Extraction
	pairs := 0
	for _, a := range fields {
		for _, b := range fields {
			if a == b || pairs >= m.opts.MaxPairsPerPage {
				continue
			}
			pairs++
			proba := m.lr.Proba(m.pf.features(p, a, b))
			cls := 0
			for k, v := range proba {
				if v > proba[cls] {
					cls = k
				}
			}
			if cls == core.OtherClass || proba[cls] < m.opts.ExtractThreshold {
				continue
			}
			out = append(out, core.Extraction{
				PageID:     p.ID,
				Subject:    p.Fields[a].Text,
				Predicate:  m.classes.Name(cls),
				Value:      p.Fields[b].Text,
				Confidence: proba[cls],
				Path:       p.Fields[b].PathString,
			})
		}
	}
	return out
}
