package kb

import (
	"sort"
	"unicode/utf8"

	"ceres/internal/strmatch"
)

// ItemID is a dense integer handle for one matchable KB item: an entity or
// a distinct normalized literal. IDs are assigned at index build time —
// entities first in sorted-entity-ID order, then literals in sorted
// normalized-form order — so comparing ItemIDs orders items exactly like
// comparing their Object.Key() strings ("e:..." sorts before "lit:...").
type ItemID int32

// SubjectRelation is one deduplicated (predicate, object) pair of a
// subject's triples, in triple insertion order.
type SubjectRelation struct {
	Pred string
	Obj  ItemID
}

// FieldKey is the precomputed matching form of one page text field: the
// normalized text, its token-set key, and its rune decomposition. Runes may
// be nil when RuneLen < 8 — such strings never enter the edit-distance
// path, because the edit budget of §3.1.1 is zero below 8 runes.
type FieldKey struct {
	Norm     string
	TokenKey string
	RuneLen  int
	Runes    []rune
}

// Index is the frozen annotation-side compilation of a KB (the training
// counterpart of the compiled serve path, DESIGN.md §6). It interns every
// matchable item into a dense ItemID, precomputes normalized alias match
// keys once at build time, and exposes the lookups Algorithms 1 and 2 run
// per field as hash probes and sorted-slice merges instead of string
// assembly. An Index is immutable and safe for concurrent use; it reflects
// the KB at build time and must be rebuilt after mutation (KB.BuildIndex
// caches and invalidates automatically).
type Index struct {
	numEntities int
	numTriples  int

	entityIDs []string // ItemID -> entity ID, for IDs < numEntities
	litNorms  []string // ItemID-numEntities -> normalized literal

	entityItem map[string]ItemID // entity ID -> ItemID
	litItem    map[string]ItemID // normalized literal -> ItemID

	// objCount counts the triples carrying each item as object, feeding
	// the frequent-object filter of §3.1.1.
	objCount []int32

	// objects[e] lists the distinct object items of entity e's triples,
	// sorted — Algorithm 1's entitySet as a merge-ready slice. Flat
	// storage: objects[objStart[e]:objStart[e+1]].
	objects  []ItemID
	objStart []int32

	// relations[relStart[e]:relStart[e+1]] lists entity e's deduplicated
	// (predicate, object) pairs in insertion order — what Algorithm 2
	// iterates per topic page.
	relations []SubjectRelation
	relStart  []int32

	// exactEnt / tokenEnt map a normalized entity name or alias (resp.
	// its token-set key, where that differs) to the sorted entity items
	// carrying it: the ItemID form of KB.LookupEntities' maps.
	exactEnt map[string][]ItemID
	tokenEnt map[string][]ItemID

	// Alias table for fuzzy matching: entity e's precomputed alias keys
	// live at [aliasStart[e]:aliasStart[e+1]]. Literal items reuse the
	// same key shape in litKeys (indexed by ItemID-numEntities).
	aliasStart []int32
	aliasKeys  []matchKey
	litKeys    []matchKey
}

// matchKey is one precomputed comparison target: a normalized alias or
// literal with its token key, rune length, and (when long enough to ever
// reach the edit-distance path) rune decomposition.
type matchKey struct {
	norm    string
	tokKey  string
	runeLen int32
	runes   []rune
}

func makeMatchKey(norm, tokKey string) matchKey {
	k := matchKey{
		norm:    norm,
		tokKey:  tokKey,
		runeLen: int32(utf8.RuneCountInString(norm)),
	}
	if k.runeLen >= 8 {
		k.runes = []rune(norm)
	}
	return k
}

// BuildIndex returns the frozen annotation index for the KB's current
// contents, building it on first use and caching it until the next
// AddEntity/AddTriple. Concurrent BuildIndex calls are safe (harvesters
// share one KB across sites); mutating the KB concurrently with any read
// is not, exactly as for the other KB accessors.
func (k *KB) BuildIndex() *Index {
	k.idxMu.Lock()
	defer k.idxMu.Unlock()
	if k.idx != nil {
		return k.idx
	}
	k.idx = newIndex(k)
	return k.idx
}

func newIndex(k *KB) *Index {
	ix := &Index{numTriples: len(k.triples)}

	// Items: entities in sorted-ID order, then literals in sorted-norm
	// order, so ItemID order coincides with Object.Key() string order.
	ix.entityIDs = k.EntityIDs()
	ix.numEntities = len(ix.entityIDs)
	ix.entityItem = make(map[string]ItemID, ix.numEntities)
	for i, id := range ix.entityIDs {
		ix.entityItem[id] = ItemID(i)
	}
	// litNorm[i] is triple i's normalized literal ("" for an entity
	// object), normalized once here for both passes over the triples.
	litNorm := make([]string, len(k.triples))
	ix.litItem = make(map[string]ItemID)
	for i, t := range k.triples {
		if t.Object.IsEntity() {
			continue
		}
		n := strmatch.Normalize(t.Object.Literal)
		litNorm[i] = n
		if _, ok := ix.litItem[n]; !ok {
			ix.litItem[n] = 0
			ix.litNorms = append(ix.litNorms, n)
		}
	}
	sort.Strings(ix.litNorms)
	for i, n := range ix.litNorms {
		ix.litItem[n] = ItemID(ix.numEntities + i)
	}

	ix.buildTripleTables(k, litNorm)
	ix.buildNameTables(k)
	return ix
}

func (ix *Index) buildTripleTables(k *KB, litNorm []string) {
	ix.objCount = make([]int32, ix.numEntities+len(ix.litNorms))
	perSubjObjs := make([][]ItemID, ix.numEntities)
	perSubjRels := make([][]SubjectRelation, ix.numEntities)
	for i, t := range k.triples {
		// AddTriple admits only known entities and non-empty literal
		// norms, so every object has an item.
		var obj ItemID
		if t.Object.IsEntity() {
			obj = ix.entityItem[t.Object.EntityID]
		} else {
			obj = ix.litItem[litNorm[i]]
		}
		ix.objCount[obj]++
		subj := ix.entityItem[t.Subject]
		perSubjObjs[subj] = append(perSubjObjs[subj], obj)
		perSubjRels[subj] = append(perSubjRels[subj], SubjectRelation{Pred: t.Predicate, Obj: obj})
	}

	ix.objStart = make([]int32, ix.numEntities+1)
	ix.relStart = make([]int32, ix.numEntities+1)
	for e := 0; e < ix.numEntities; e++ {
		objs := perSubjObjs[e]
		sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
		for i, o := range objs {
			if i > 0 && o == objs[i-1] {
				continue
			}
			ix.objects = append(ix.objects, o)
		}
		ix.objStart[e+1] = int32(len(ix.objects))

		// Dedup (pred, obj) pairs keeping first occurrence, mirroring the
		// duplicate-triple skip of Algorithm 2's per-page grouping.
		rels := perSubjRels[e]
		var seen map[SubjectRelation]bool
		if len(rels) > 1 {
			seen = make(map[SubjectRelation]bool, len(rels))
		}
		for _, r := range rels {
			if seen[r] {
				continue
			}
			if seen != nil {
				seen[r] = true
			}
			ix.relations = append(ix.relations, r)
		}
		ix.relStart[e+1] = int32(len(ix.relations))
	}
}

// buildNameTables builds the name lookups and the alias match keys in one
// pass over the entities' names. Entities are visited in ItemID order, so
// each exactEnt and tokenEnt list comes out sorted, and a name repeated
// within one entity is kept once.
func (ix *Index) buildNameTables(k *KB) {
	ix.exactEnt = make(map[string][]ItemID, ix.numEntities) // about a name each
	ix.tokenEnt = make(map[string][]ItemID)
	add := func(m map[string][]ItemID, key string, it ItemID) {
		if l := m[key]; len(l) == 0 || l[len(l)-1] != it {
			m[key] = append(l, it)
		}
	}
	ix.aliasStart = make([]int32, ix.numEntities+1)
	var names []string
	for e, id := range ix.entityIDs {
		names = appendNames(names[:0], k.entities[id])
		for _, name := range names {
			norm := strmatch.Normalize(name)
			if norm == "" {
				continue // never matches any non-empty field text
			}
			tk := strmatch.TokenSetKeyNormalized(norm)
			add(ix.exactEnt, norm, ItemID(e))
			if tk != norm {
				add(ix.tokenEnt, tk, ItemID(e))
			}
			dup := false
			for _, prev := range ix.aliasKeys[ix.aliasStart[e]:] {
				if prev.norm == norm {
					dup = true
					break
				}
			}
			if !dup {
				ix.aliasKeys = append(ix.aliasKeys, makeMatchKey(norm, tk))
			}
		}
		ix.aliasStart[e+1] = int32(len(ix.aliasKeys))
	}
	ix.litKeys = make([]matchKey, len(ix.litNorms))
	for i, norm := range ix.litNorms {
		ix.litKeys[i] = makeMatchKey(norm, strmatch.TokenSetKeyNormalized(norm))
	}
}

func appendNames(dst []string, e *Entity) []string {
	dst = append(dst, e.Name)
	return append(dst, e.Aliases...)
}

// NumTriples returns the triple count at build time.
func (ix *Index) NumTriples() int { return ix.numTriples }

// IsEntity reports whether the item is an entity (literals follow all
// entities in ItemID order).
func (ix *Index) IsEntity(it ItemID) bool { return int(it) < ix.numEntities }

// EntityID returns the entity ID of an entity item ("" for literals).
func (ix *Index) EntityID(it ItemID) string {
	if !ix.IsEntity(it) {
		return ""
	}
	return ix.entityIDs[it]
}

// Key returns the Object.Key()-compatible string identity of an item.
func (ix *Index) Key(it ItemID) string {
	if ix.IsEntity(it) {
		return "e:" + ix.entityIDs[it]
	}
	return "lit:" + ix.litNorms[int(it)-ix.numEntities]
}

// EntityItem resolves an entity ID to its item.
func (ix *Index) EntityItem(id string) (ItemID, bool) {
	it, ok := ix.entityItem[id]
	return it, ok
}

// ObjectCount returns how many triples carry the item as object.
func (ix *Index) ObjectCount(it ItemID) int { return int(ix.objCount[it]) }

// ObjectItems returns the sorted distinct object items of the entity's
// triples — Algorithm 1's entitySet. The slice is shared; callers must not
// modify it.
func (ix *Index) ObjectItems(subject ItemID) []ItemID {
	if !ix.IsEntity(subject) {
		return nil
	}
	return ix.objects[ix.objStart[subject]:ix.objStart[subject+1]]
}

// Relations returns the deduplicated (predicate, object) pairs of the
// entity's triples in insertion order. The slice is shared; callers must
// not modify it.
func (ix *Index) Relations(subject ItemID) []SubjectRelation {
	if !ix.IsEntity(subject) {
		return nil
	}
	return ix.relations[ix.relStart[subject]:ix.relStart[subject+1]]
}

// AppendCandidates appends, in sorted order, the items the field may
// denote — the ItemID form of KB.MatchItems: entities whose normalized
// name matches exactly or whose token-set key matches, plus the literal
// with the same normalized form, if any. An empty norm matches nothing.
func (ix *Index) AppendCandidates(dst []ItemID, key FieldKey) []ItemID {
	if key.Norm == "" {
		return dst
	}
	exact := ix.exactEnt[key.Norm]
	token := ix.tokenEnt[key.TokenKey]
	// Merge two sorted unique lists, deduplicating across them. Entities
	// precede the literal item in ItemID order, so the result stays sorted.
	i, j := 0, 0
	for i < len(exact) && j < len(token) {
		switch {
		case exact[i] < token[j]:
			dst = append(dst, exact[i])
			i++
		case exact[i] > token[j]:
			dst = append(dst, token[j])
			j++
		default:
			dst = append(dst, exact[i])
			i++
			j++
		}
	}
	dst = append(dst, exact[i:]...)
	dst = append(dst, token[j:]...)
	if it, ok := ix.litItem[key.Norm]; ok {
		dst = append(dst, it)
	}
	return dst
}

// Matches reports whether the field text denotes the item, with exactly
// KB.MatchesObject's semantics: for entities, FuzzyEqual against the name
// or any alias; for literals, FuzzyEqual against the literal. All string
// normalization happened at build time (aliases) or page-index time (the
// field), so a call is a few integer guards, string compares, and — only
// for long, near-equal-length pairs — one bounded edit distance.
func (ix *Index) Matches(key FieldKey, it ItemID) bool {
	if key.Norm == "" {
		return false
	}
	if !ix.IsEntity(it) {
		return fuzzyKeyMatch(key, &ix.litKeys[int(it)-ix.numEntities])
	}
	start, end := ix.aliasStart[it], ix.aliasStart[it+1]
	for a := start; a < end; a++ {
		if fuzzyKeyMatch(key, &ix.aliasKeys[a]) {
			return true
		}
	}
	return false
}

// fuzzyKeyMatch is strmatch.FuzzyEqual over precomputed keys.
func fuzzyKeyMatch(f FieldKey, m *matchKey) bool {
	if f.Norm == m.norm {
		return true
	}
	if f.TokenKey == m.tokKey {
		return true
	}
	budget := strmatch.EditBudget(f.RuneLen, int(m.runeLen))
	if budget == 0 {
		return false
	}
	_, ok := strmatch.LevenshteinBoundedRunes(f.Runes, m.runes, budget)
	return ok
}
