package kb

import (
	"fmt"
	"sort"
	"sync"

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

// KB is an in-memory seed knowledge base. Annotation reads it through its
// Index. The zero value is not usable; call New.
type KB struct {
	ontology *Ontology

	entities map[string]*Entity
	triples  []Triple

	// idx caches the frozen annotation index (see index.go) and digest the
	// content digest (see Digest); any mutation invalidates both. idxMu
	// makes concurrent BuildIndex and Digest calls safe.
	idxMu  sync.Mutex
	idx    *Index
	digest string
}

// New creates an empty KB over the given ontology.
func New(o *Ontology) *KB {
	return &KB{
		ontology: o,
		entities: make(map[string]*Entity),
	}
}

// Ontology returns the KB's ontology.
func (k *KB) Ontology() *Ontology { return k.ontology }

// AddEntity inserts an entity. Adding an existing ID returns an error.
func (k *KB) AddEntity(e Entity) error {
	if err := checkEntity(e.ID, k.hasEntity); err != nil {
		return err
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
	k.idxMu.Unlock()
}

// AddTriple inserts a fact. The predicate must be in the ontology and the
// subject (and entity object, if any) must already exist.
func (k *KB) AddTriple(t Triple) error {
	if err := checkTriple(k.ontology.Has, k.hasEntity, t); err != nil {
		return err
	}
	k.triples = append(k.triples, t)
	k.invalidateIndex()
	return nil
}

func (k *KB) hasEntity(id string) bool {
	_, ok := k.entities[id]
	return ok
}

// checkEntity is AddEntity's verdict on an entity ID, given which IDs the
// KB holds already.
func checkEntity(id string, has func(string) bool) error {
	if id == "" {
		return fmt.Errorf("kb: entity with empty ID")
	}
	if has(id) {
		return fmt.Errorf("kb: duplicate entity %q", id)
	}
	return nil
}

// checkTriple is AddTriple's verdict on t, given which predicates the
// ontology defines and which entity IDs the KB holds.
func checkTriple(hasPred, has func(string) bool, t Triple) error {
	if !hasPred(t.Predicate) {
		return fmt.Errorf("kb: predicate %q not in ontology", t.Predicate)
	}
	if !has(t.Subject) {
		return fmt.Errorf("kb: unknown subject %q", t.Subject)
	}
	if t.Object.IsEntity() {
		if !has(t.Object.EntityID) {
			return fmt.Errorf("kb: unknown object entity %q", t.Object.EntityID)
		}
	} else if !hasNorm(t.Object.Literal) {
		return fmt.Errorf("kb: empty literal object for %s/%s", t.Subject, t.Predicate)
	}
	return nil
}

// hasNorm reports whether s normalizes to a non-empty string. An ASCII
// letter or digit survives normalization, so most literals answer at
// their first byte.
func hasNorm(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i] | 0x20; 'a' <= c && c <= 'z' || '0' <= s[i] && s[i] <= '9' {
			return true
		}
	}
	var buf [96]byte
	return len(strmatch.NormalizeInto(buf[:0], s)) > 0
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
