package kb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ceres/internal/strmatch"
)

// Entity is a node of the knowledge graph.
type Entity struct {
	ID      string
	Type    string
	Name    string
	Aliases []string
}

// Object is the object slot of a triple: either a reference to an entity or
// a literal string, never both.
type Object struct {
	EntityID string
	Literal  string
}

// EntityObject makes an entity-valued object.
func EntityObject(id string) Object { return Object{EntityID: id} }

// LiteralObject makes a literal-valued object.
func LiteralObject(v string) Object { return Object{Literal: v} }

// IsEntity reports whether the object references an entity.
func (o Object) IsEntity() bool { return o.EntityID != "" }

// Key returns a canonical identity for the object usable as a set member:
// the entity ID for entity objects, or "lit:"+normalized text for literals.
func (o Object) Key() string {
	if o.IsEntity() {
		return "e:" + o.EntityID
	}
	return "lit:" + strmatch.Normalize(o.Literal)
}

// Triple is one (subject, predicate, object) fact.
type Triple struct {
	Subject   string // entity ID
	Predicate string
	Object    Object
}

// KB is an in-memory seed knowledge base with the indexes CERES queries
// during annotation. The zero value is not usable; call New.
type KB struct {
	ontology *Ontology

	entities map[string]*Entity
	triples  []Triple

	bySubject map[string][]int // entity ID -> triple indices
	byPred    map[string][]int // predicate -> triple indices

	// lookups holds the string-keyed maps LookupEntities, HasLiteral and
	// FrequentObjectKeys read (see lookup.go), built by the first such call
	// after a mutation. Annotation reads the Index instead, which derives
	// its own tables from entities and triples, so a KB that only trains
	// never builds them.
	lookups atomic.Pointer[lookupMaps]

	// idx caches the frozen annotation index (see index.go) and digest the
	// content digest (see Digest); any mutation invalidates both, and
	// lookups. idxMu makes concurrent BuildIndex, Digest and lookup-map
	// builds safe.
	idxMu  sync.Mutex
	idx    *Index
	digest string
}

// New creates an empty KB over the given ontology.
func New(o *Ontology) *KB {
	return &KB{
		ontology:  o,
		entities:  make(map[string]*Entity),
		bySubject: make(map[string][]int),
		byPred:    make(map[string][]int),
	}
}

// Ontology returns the KB's ontology.
func (k *KB) Ontology() *Ontology { return k.ontology }

// AddEntity inserts an entity. Adding an existing ID returns an error.
func (k *KB) AddEntity(e Entity) error {
	if e.ID == "" {
		return fmt.Errorf("kb: entity with empty ID")
	}
	if _, dup := k.entities[e.ID]; dup {
		return fmt.Errorf("kb: duplicate entity %q", e.ID)
	}
	stored := e
	k.entities[e.ID] = &stored
	k.invalidateIndex()
	return nil
}

func (k *KB) invalidateIndex() {
	k.idxMu.Lock()
	k.idx = nil
	k.digest = ""
	k.lookups.Store(nil)
	k.idxMu.Unlock()
}

func appendUnique(ids []string, id string) []string {
	for _, x := range ids {
		if x == id {
			return ids
		}
	}
	return append(ids, id)
}

// AddTriple inserts a fact. The predicate must be in the ontology and the
// subject (and entity object, if any) must already exist.
func (k *KB) AddTriple(t Triple) error {
	if err := k.ontology.Validate(t.Predicate); err != nil {
		return err
	}
	if _, ok := k.entities[t.Subject]; !ok {
		return fmt.Errorf("kb: unknown subject %q", t.Subject)
	}
	if t.Object.IsEntity() {
		if _, ok := k.entities[t.Object.EntityID]; !ok {
			return fmt.Errorf("kb: unknown object entity %q", t.Object.EntityID)
		}
	} else {
		var buf [96]byte // only whether the norm is empty matters here
		if len(strmatch.NormalizeInto(buf[:0], t.Object.Literal)) == 0 {
			return fmt.Errorf("kb: empty literal object for %s/%s", t.Subject, t.Predicate)
		}
	}
	idx := len(k.triples)
	k.triples = append(k.triples, t)
	k.bySubject[t.Subject] = append(k.bySubject[t.Subject], idx)
	k.byPred[t.Predicate] = append(k.byPred[t.Predicate], idx)
	k.invalidateIndex()
	return nil
}

// Entity returns the entity with the given ID.
func (k *KB) Entity(id string) (Entity, bool) {
	e, ok := k.entities[id]
	if !ok {
		return Entity{}, false
	}
	return *e, true
}

// NumEntities returns the number of entities.
func (k *KB) NumEntities() int { return len(k.entities) }

// NumTriples returns the number of triples.
func (k *KB) NumTriples() int { return len(k.triples) }

// TriplesOf returns all triples whose subject is the given entity.
func (k *KB) TriplesOf(subject string) []Triple {
	idxs := k.bySubject[subject]
	out := make([]Triple, len(idxs))
	for i, idx := range idxs {
		out[i] = k.triples[idx]
	}
	return out
}

// TriplesWithPredicate returns all triples with the given predicate.
func (k *KB) TriplesWithPredicate(pred string) []Triple {
	idxs := k.byPred[pred]
	out := make([]Triple, len(idxs))
	for i, idx := range idxs {
		out[i] = k.triples[idx]
	}
	return out
}

// Triples returns a copy of all triples.
func (k *KB) Triples() []Triple {
	out := make([]Triple, len(k.triples))
	copy(out, k.triples)
	return out
}

// EntityIDs returns all entity IDs, sorted, for deterministic iteration.
func (k *KB) EntityIDs() []string {
	out := make([]string, 0, len(k.entities))
	for id := range k.entities {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ObjectKeys returns the set of object keys (entity or literal) appearing
// in triples with the given subject — the entitySet of Algorithm 1 line 6.
func (k *KB) ObjectKeys(subject string) map[string]bool {
	idxs := k.bySubject[subject]
	out := make(map[string]bool, len(idxs))
	for _, idx := range idxs {
		out[k.triples[idx].Object.Key()] = true
	}
	return out
}

// FrequentObjectKeys returns the object keys that appear in at least frac
// of all triples (§3.1.1: "we compile a list of strings appearing in a
// large percentage (e.g., 0.01%) of triples and do not consider them as
// potential topics").
func (k *KB) FrequentObjectKeys(frac float64) map[string]bool {
	out := make(map[string]bool)
	if len(k.triples) == 0 {
		return out
	}
	min := frac * float64(len(k.triples))
	for key, c := range k.maps().objectCount {
		if float64(c) >= min {
			out[key] = true
		}
	}
	return out
}
