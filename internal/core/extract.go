package core

import "ceres/internal/cluster"

// ExtractPage and SiteModel.Route below are §4.3 as written — the trained
// model applied, through the training featurizer, to every text field of
// a parsed page, and a page routed by the signature of its tree.
// ExtractPage is live in core.Run and internal/bench (cmd/ceres-bench: the
// paper's tables); together they are the reference every differential
// test compares the production engine (streamserve.go) with. Serving
// never comes here.

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
	for fi, f := range p.Fields {
		pr := m.Proba(f)
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

// Route returns the index of the cluster whose exemplar signature is most
// similar to the page, or -1 for a model with no clusters. The page's
// signature is matched against the pre-sorted exemplar slices with a
// linear merge instead of per-page map intersections.
func (sm *SiteModel) Route(p *Page) int {
	if len(sm.Clusters) == 1 {
		return 0
	}
	i, _ := cluster.RouteSorted(cluster.SortedSignatureOf(p.Doc), sm.exemplars())
	return i
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
