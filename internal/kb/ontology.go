// Package kb implements the seed knowledge base CERES aligns against
// webpages (paper §2.1): a triple store over an ontology of typed
// predicates, with the name/alias indexes used for entity identification
// (§3.1.1 step 1), the per-subject object sets used for topic scoring
// (§3.1.1 step 2), and the frequent-object statistics used by the
// uniqueness filter.
package kb

import "fmt"

// Predicate describes one relation of the ontology.
type Predicate struct {
	// Name is the relation identifier, e.g. "film.wasDirectedBy.person".
	Name string
	// Domain is the entity type of valid subjects.
	Domain string
	// Range is the entity type of valid objects, or "" when objects are
	// literals (dates, phone numbers, ISBNs, ...).
	Range string
	// MultiValued records whether one subject may hold many objects
	// (e.g. cast members) rather than a unique value (e.g. birth date).
	MultiValued bool
}

// Ontology is the set of predicates extraction is restricted to (§2.1:
// "We consider only predicates in the ontology, for which we can obtain
// training data from K").
type Ontology struct {
	preds map[string]Predicate
	order []string
}

// NewOntology builds an ontology from a list of predicates.
func NewOntology(preds ...Predicate) *Ontology {
	o := &Ontology{preds: make(map[string]Predicate, len(preds))}
	for _, p := range preds {
		o.Add(p)
	}
	return o
}

// Add inserts or replaces a predicate definition.
func (o *Ontology) Add(p Predicate) {
	if _, exists := o.preds[p.Name]; !exists {
		o.order = append(o.order, p.Name)
	}
	o.preds[p.Name] = p
}

// Predicate returns the named predicate definition.
func (o *Ontology) Predicate(name string) (Predicate, bool) {
	p, ok := o.preds[name]
	return p, ok
}

// Has reports whether the ontology defines the named predicate.
func (o *Ontology) Has(name string) bool {
	_, ok := o.preds[name]
	return ok
}

// Names returns predicate names in insertion order.
func (o *Ontology) Names() []string {
	out := make([]string, len(o.order))
	copy(out, o.order)
	return out
}

// Len returns the number of predicates.
func (o *Ontology) Len() int { return len(o.order) }

// Validate checks a triple's predicate against the ontology, returning an
// error for unknown predicates.
func (o *Ontology) Validate(pred string) error {
	if !o.Has(pred) {
		return fmt.Errorf("kb: predicate %q not in ontology", pred)
	}
	return nil
}
