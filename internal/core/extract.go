package core

// ExtractPage below is §4.3 as written — the trained model applied,
// through the training featurizer, to every text field of a prepared
// page. Nothing outside tests calls it: it is the reference every
// differential test compares the production engine (streamserve.go) with.
// Serving, and the paper's tables in internal/bench, go through that
// engine.

// Extraction is one extracted triple (§4.3): the page's topic name is the
// subject, the classified node's text the object.
type Extraction struct {
	PageID     string
	Subject    string
	Predicate  string
	Value      string
	Confidence float64
	// Path is the XPath of the extracted node.
	Path string
	// SubjectPath is the XPath of the name node that supplied the
	// subject.
	SubjectPath string
}

// ExtractOptions tunes extraction.
type ExtractOptions struct {
	// NameThreshold is the minimum probability for a node to be accepted
	// as the page's name node (default 0.5).
	NameThreshold float64

	// applied marks the options as fully resolved; see Explicit.
	applied bool
}

// Explicit returns o marked as fully resolved: every field — including a
// zero NameThreshold, which accepts any best-scoring name node — is taken
// literally instead of being replaced by the default.
func (o ExtractOptions) Explicit() ExtractOptions {
	o.applied = true
	return o
}

func (o ExtractOptions) withDefaults() ExtractOptions {
	if o.applied {
		return o
	}
	o.applied = true
	if o.NameThreshold == 0 {
		o.NameThreshold = 0.5
	}
	return o
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
	subjectPath := p.Fields[bestName].PathString

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
			PageID:      p.ID,
			Subject:     subject,
			Predicate:   m.Classes.Name(cls),
			Value:       p.Fields[s.fieldIdx].Text,
			Confidence:  prob,
			Path:        p.Fields[s.fieldIdx].PathString,
			SubjectPath: subjectPath,
		})
	}
	return out
}

func argmax(p []float64) (int, float64) {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best, p[best]
}
