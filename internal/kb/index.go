package kb

import (
	"hash/maphash"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"ceres/internal/strmatch"
)

// ItemID is a dense integer handle for one matchable KB item: an entity or
// a distinct normalized literal. IDs are assigned at index build time —
// entities first in sorted-entity-ID order, then literals in sorted
// normalized-form order — so comparing ItemIDs orders items exactly like
// comparing their Object.Key() strings ("e:..." sorts before "lit:...").
type ItemID int32

// Relation is one deduplicated (predicate, object) pair of a subject's
// triples. Pred is the predicate's index; Index.Predicate names it.
type Relation struct {
	Pred int32
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
//
// An Index is self-contained: every string it holds lives in its one
// arena, or (the predicate names) is a copy of its own, so it shares no
// byte with the KB it was built from or that KB's text, and holding it
// holds nothing of either.
type Index struct {
	numEntities int
	numTriples  int

	// arena holds every string of the index once: the entity IDs in
	// ItemID order, then the name keys in sorted order, then the token
	// keys of literals that are no name key. Entity e's ID is
	// arena[entOff[e]:entOff[e+1]].
	arena  string
	entOff []uint32

	// preds names the predicates of relations; a relation's Pred indexes
	// it.
	preds []string

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
	relations []Relation
	relStart  []int32

	// keys are the distinct normalized names, name token keys and literal
	// norms, each with the sorted entity items carrying it as a name
	// (exact) or, where that differs from the name, as its token key
	// (token), and the literal item of that norm: the ItemID form of
	// kbtest's name, token and literal maps. The postings of both
	// lists are flat in postings; slots is an open-addressed table of
	// key index + 1 (0 free) under seed.
	keys     []nameKey
	postings []ItemID
	slots    []uint32
	seed     maphash.Seed

	// Alias table for fuzzy matching: entity e's precomputed alias keys
	// live at [aliasStart[e]:aliasStart[e+1]]. Literal items reuse the
	// same key shape in litKeys (indexed by ItemID-numEntities).
	aliasStart []int32
	aliasKeys  []matchKey
	litKeys    []matchKey
}

// span is a string of an Index's arena: arena[off:off+n].
type span struct{ off, n uint32 }

// nameKey is one entry of the name table: its key, its exact and token
// postings (postings[post:post+nExact], then the nToken after them) and
// its literal item (-1 if none).
type nameKey struct {
	key                  span
	post, nExact, nToken int32
	lit                  ItemID
}

// matchKey is one precomputed comparison target: a normalized alias or
// literal with its token key and rune length.
type matchKey struct {
	norm, tok span
	runeLen   int32
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

// indexBuilder holds what building an Index needs and the Index does not.
type indexBuilder struct {
	arena  []byte
	intern map[string]span
}

// str interns s into the arena.
func (b *indexBuilder) str(s string) span {
	if sp, ok := b.intern[s]; ok {
		return sp
	}
	sp := span{off: uint32(len(b.arena)), n: uint32(len(s))}
	b.arena = append(b.arena, s...)
	b.intern[s] = sp
	return sp
}

func (b *indexBuilder) matchKey(norm, tok string) matchKey {
	return matchKey{norm: b.str(norm), tok: b.str(tok), runeLen: int32(utf8.RuneCountInString(norm))}
}

// nameEntry is a name key under construction.
type nameEntry struct {
	exact, token []ItemID
	lit          ItemID
}

func newIndex(k *KB) *Index {
	ix := &Index{numTriples: len(k.triples), seed: maphash.MakeSeed()}
	b := &indexBuilder{intern: make(map[string]span)}

	// Items: entities in sorted-ID order, then literals in sorted-norm
	// order, so ItemID order coincides with Object.Key() string order.
	ids := k.EntityIDs()
	ix.numEntities = len(ids)
	ix.entOff = make([]uint32, len(ids)+1)
	for e, id := range ids {
		b.arena = append(b.arena, id...)
		ix.entOff[e+1] = uint32(len(b.arena))
	}
	entityItem := make(map[string]ItemID, len(ids))
	for e, id := range ids {
		entityItem[id] = ItemID(e)
	}
	// litNorm[i] is triple i's normalized literal ("" for an entity
	// object), normalized once here for both passes over the triples.
	litNorm := make([]string, len(k.triples))
	litItem := make(map[string]ItemID)
	var lits []string
	for i, t := range k.triples {
		if t.Object.IsEntity() {
			continue
		}
		n := strmatch.Normalize(t.Object.Literal)
		litNorm[i] = n
		if _, ok := litItem[n]; !ok {
			litItem[n] = 0
			lits = append(lits, n)
		}
	}
	sort.Strings(lits)
	for i, n := range lits {
		litItem[n] = ItemID(ix.numEntities + i)
	}

	ix.buildTripleTables(k, entityItem, litItem, litNorm)
	ix.buildNameTables(k, b, ids, lits)
	ix.arena = string(b.arena)
	return ix
}

func (ix *Index) buildTripleTables(k *KB, entityItem, litItem map[string]ItemID, litNorm []string) {
	names := k.ontology.Names()
	predID := make(map[string]int32, len(names))
	ix.preds = make([]string, len(names))
	for i, name := range names {
		predID[name] = int32(i)
		ix.preds[i] = strings.Clone(name)
	}
	ix.objCount = make([]int32, ix.numEntities+len(litItem))
	perSubjObjs := make([][]ItemID, ix.numEntities)
	perSubjRels := make([][]Relation, ix.numEntities)
	for i, t := range k.triples {
		// AddTriple admits only known entities, predicates of the
		// ontology and non-empty literal norms, so every object has an
		// item and every predicate an index.
		var obj ItemID
		if t.Object.IsEntity() {
			obj = entityItem[t.Object.EntityID]
		} else {
			obj = litItem[litNorm[i]]
		}
		ix.objCount[obj]++
		subj := entityItem[t.Subject]
		perSubjObjs[subj] = append(perSubjObjs[subj], obj)
		perSubjRels[subj] = append(perSubjRels[subj], Relation{Pred: predID[t.Predicate], Obj: obj})
	}

	ix.objStart = make([]int32, ix.numEntities+1)
	ix.relStart = make([]int32, ix.numEntities+1)
	for e := 0; e < ix.numEntities; e++ {
		objs := perSubjObjs[e]
		slices.Sort(objs)
		ix.objects = append(ix.objects, slices.Compact(objs)...)
		ix.objStart[e+1] = int32(len(ix.objects))

		// Dedup (pred, obj) pairs keeping first occurrence, mirroring the
		// duplicate-triple skip of Algorithm 2's per-page grouping.
		rels := perSubjRels[e]
		var seen map[Relation]bool
		if len(rels) > 1 {
			seen = make(map[Relation]bool, len(rels))
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
	ix.objects = slices.Clip(ix.objects)
	ix.relations = slices.Clip(ix.relations)
}

// buildNameTables builds the name table and the alias and literal match
// keys. Entities are visited in ItemID order, so each exact and token
// list comes out sorted, and a name repeated within one entity is kept
// once.
func (ix *Index) buildNameTables(k *KB, b *indexBuilder, ids, lits []string) {
	entries := make(map[string]*nameEntry)
	entry := func(key string) *nameEntry {
		en := entries[key]
		if en == nil {
			en = &nameEntry{lit: -1}
			entries[key] = en
		}
		return en
	}
	add := func(l []ItemID, it ItemID) []ItemID {
		if len(l) == 0 || l[len(l)-1] != it {
			l = append(l, it)
		}
		return l
	}
	for i, n := range lits {
		entry(n).lit = ItemID(ix.numEntities + i)
	}
	type alias struct{ norm, tok string }
	var aliases []alias
	ix.aliasStart = make([]int32, ix.numEntities+1)
	var names []string
	for e, id := range ids {
		names = appendNames(names[:0], k.entities[id])
		start := len(aliases)
		for _, name := range names {
			norm := strmatch.Normalize(name)
			if norm == "" {
				continue // never matches any non-empty field text
			}
			tk := strmatch.TokenSetKeyNormalized(norm)
			en := entry(norm)
			en.exact = add(en.exact, ItemID(e))
			if tk != norm {
				en := entry(tk)
				en.token = add(en.token, ItemID(e))
			}
			if !slices.ContainsFunc(aliases[start:], func(a alias) bool { return a.norm == norm }) {
				aliases = append(aliases, alias{norm, tk})
			}
		}
		ix.aliasStart[e+1] = int32(len(aliases))
	}

	keys := make([]string, 0, len(entries))
	for key := range entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	ix.keys = make([]nameKey, len(keys))
	for i, key := range keys {
		en := entries[key]
		ix.keys[i] = nameKey{key: b.str(key), post: int32(len(ix.postings)),
			nExact: int32(len(en.exact)), nToken: int32(len(en.token)), lit: en.lit}
		ix.postings = append(ix.postings, en.exact...)
		ix.postings = append(ix.postings, en.token...)
	}
	ix.postings = slices.Clip(ix.postings)
	size := 8
	for size < 2*len(ix.keys) {
		size *= 2
	}
	ix.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for i, key := range keys {
		h := maphash.String(ix.seed, key) & mask
		for ix.slots[h] != 0 {
			h = (h + 1) & mask
		}
		ix.slots[h] = uint32(i + 1)
	}

	ix.aliasKeys = make([]matchKey, len(aliases))
	for i, a := range aliases {
		ix.aliasKeys[i] = b.matchKey(a.norm, a.tok)
	}
	ix.litKeys = make([]matchKey, len(lits))
	for i, norm := range lits {
		ix.litKeys[i] = b.matchKey(norm, strmatch.TokenSetKeyNormalized(norm))
	}
}

func appendNames(dst []string, e *Entity) []string {
	dst = append(dst, e.Name)
	return append(dst, e.Aliases...)
}

// str returns the arena string sp.
func (ix *Index) str(sp span) string { return ix.arena[sp.off : sp.off+sp.n] }

// lookup returns the name key s, or nil.
func (ix *Index) lookup(s string) *nameKey {
	if len(ix.slots) == 0 {
		return nil
	}
	mask := uint64(len(ix.slots) - 1)
	for h := maphash.String(ix.seed, s) & mask; ; h = (h + 1) & mask {
		i := ix.slots[h]
		if i == 0 {
			return nil
		}
		if nk := &ix.keys[i-1]; ix.str(nk.key) == s {
			return nk
		}
	}
}

// NumTriples returns the triple count at build time.
func (ix *Index) NumTriples() int { return ix.numTriples }

// IsEntity reports whether the item is an entity (literals follow all
// entities in ItemID order).
func (ix *Index) IsEntity(it ItemID) bool { return int(it) < ix.numEntities }

// EntityID returns the entity ID of an entity item ("" for literals). The
// string is the index's; holding it holds the index's arena.
func (ix *Index) EntityID(it ItemID) string {
	if !ix.IsEntity(it) {
		return ""
	}
	return ix.entityID(int(it))
}

func (ix *Index) entityID(e int) string { return ix.arena[ix.entOff[e]:ix.entOff[e+1]] }

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
func (ix *Index) Relations(subject ItemID) []Relation {
	if !ix.IsEntity(subject) {
		return nil
	}
	return ix.relations[ix.relStart[subject]:ix.relStart[subject+1]]
}

// Predicate returns the name of the predicate a Relation's Pred indexes.
func (ix *Index) Predicate(pred int32) string { return ix.preds[pred] }

// AppendCandidates appends, in sorted order, the items the field may
// denote: entities whose normalized name matches exactly or whose
// token-set key matches, plus the literal with the same normalized form,
// if any. An empty norm matches nothing.
func (ix *Index) AppendCandidates(dst []ItemID, key FieldKey) []ItemID {
	if key.Norm == "" {
		return dst
	}
	nk := ix.lookup(key.Norm)
	tk := nk
	if key.TokenKey != key.Norm {
		tk = ix.lookup(key.TokenKey)
	}
	var exact, token []ItemID
	if nk != nil {
		exact = ix.postings[nk.post : nk.post+nk.nExact]
	}
	if tk != nil {
		token = ix.postings[tk.post+tk.nExact : tk.post+tk.nExact+tk.nToken]
	}
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
	if nk != nil && nk.lit >= 0 {
		dst = append(dst, nk.lit)
	}
	return dst
}

// Matches reports whether the field text denotes the item, with exactly
// kbtest.FuzzyEqual's semantics: for entities against the name or any
// alias, for literals against the literal. All string normalization
// happened at build time (aliases) or page-index time (the field), so a
// call is a few integer guards, string compares, and — only for long,
// near-equal-length pairs — one bounded edit distance.
func (ix *Index) Matches(key FieldKey, it ItemID) bool {
	if key.Norm == "" {
		return false
	}
	if !ix.IsEntity(it) {
		return ix.fuzzyKeyMatch(key, &ix.litKeys[int(it)-ix.numEntities])
	}
	start, end := ix.aliasStart[it], ix.aliasStart[it+1]
	for a := start; a < end; a++ {
		if ix.fuzzyKeyMatch(key, &ix.aliasKeys[a]) {
			return true
		}
	}
	return false
}

// fuzzyKeyMatch is kbtest.FuzzyEqual over precomputed keys. The key's
// runes are decoded only for the edit distance, onto the stack unless the
// key is long.
func (ix *Index) fuzzyKeyMatch(f FieldKey, m *matchKey) bool {
	norm := ix.str(m.norm)
	if f.Norm == norm {
		return true
	}
	if f.TokenKey == ix.str(m.tok) {
		return true
	}
	budget := strmatch.EditBudget(f.RuneLen, int(m.runeLen))
	if budget == 0 || f.RuneLen-int(m.runeLen) > budget || int(m.runeLen)-f.RuneLen > budget {
		return false
	}
	var buf [64]rune
	runes := buf[:0]
	for _, r := range norm {
		runes = append(runes, r)
	}
	_, ok := strmatch.LevenshteinBoundedRunes(f.Runes, runes, budget)
	return ok
}
