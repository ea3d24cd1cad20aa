package core

// §4.3 as written: the trained model applied, through the training
// featurizer, to every text field of a prepared page. It is the reference
// the serve engine (streamserve.go) is differentially tested against,
// here and in serve_diff_test.go. ExtractWith runs the engine through a
// scratch the test owns.

import "ceres/internal/dom"

// Proba returns the class distribution of field fi of a page streamed
// under featureStreamOptions(m.Featurizer.opts).
func (m *Model) Proba(sp *dom.StreamPage, fi int) []float64 {
	x := m.Featurizer.fieldFeatures(sp, fi)
	if m.NB == nil {
		return m.LR.Proba(x)
	}
	p := make([]float64, m.NB.ClassCount())
	m.NB.ProbaInto(x, p)
	return p
}

// ExtractPage applies the model to every field of a page (§4.3: "we apply
// the logistic regression model we learned to all DOM nodes on each page
// of the website"). The highest-probability name node supplies the
// subject; remaining fields whose argmax class is a predicate yield
// extractions carrying that class's probability as confidence. Extractions
// at every confidence are returned; callers threshold.
func ExtractPage(p *Page, m *Model, opts ExtractOptions) []Extraction {
	opts = opts.withDefaults()
	nameClass := m.Classes.Index(NameClass)
	if nameClass == OtherClass {
		return nil // no name class was learned; no subjects identifiable
	}
	type scored struct {
		fieldIdx int
		proba    []float64
	}
	all := make([]scored, len(p.Fields))
	bestName, bestNameP := -1, 0.0
	s := pageStreamer{opts: featureStreamOptions(m.Featurizer.opts)}
	sp := s.stream(p)
	for fi := range p.Fields {
		pr := m.Proba(sp, fi)
		all[fi] = scored{fieldIdx: fi, proba: pr}
		if pr[nameClass] > bestNameP {
			bestName, bestNameP = fi, pr[nameClass]
		}
	}
	if bestName < 0 || bestNameP < opts.NameThreshold {
		return nil // §4.3: extraction requires an identified name node
	}
	subject := p.Fields[bestName].Text

	var out []Extraction
	for _, s := range all {
		if s.fieldIdx == bestName {
			continue
		}
		cls, prob := argmax(s.proba)
		if cls == OtherClass || cls == nameClass {
			continue
		}
		out = append(out, Extraction{
			PageID:     p.ID,
			Subject:    subject,
			Predicate:  m.Classes.Name(cls),
			Value:      p.Fields[s.fieldIdx].Text,
			Confidence: prob,
			Path:       p.Fields[s.fieldIdx].PathString,
		})
	}
	return out
}

// ExtractWith extracts one page through a scratch the caller owns, where
// every other entry borrows one from the pool: what a differential test
// needs to compare a scratch that has served the site before with one that
// has not. The scratch's counters and stage times are left running.
func (sm *SiteModel) ExtractWith(sc *ServeScratch, id string, html []byte) ([]Extraction, error) {
	if err := sm.serveable(); err != nil {
		return nil, err
	}
	_, exts := sm.extractBytes(id, html, sc)
	return exts, nil
}
