package core

// Extraction is what §4.3 outputs and ExtractOptions its one knob. The
// one engine that extracts is streamserve.go; §4.3 as written,
// ExtractPage, is its reference in this package's test files.

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

func argmax(p []float64) (int, float64) {
	best := 0
	for i, v := range p {
		if v > p[best] {
			best = i
		}
	}
	return best, p[best]
}
