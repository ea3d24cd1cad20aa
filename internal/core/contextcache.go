package core

import "slices"

// This file is the serve path's one scoring cache (DESIGN.md §5). A
// field's class probabilities are a function of its structural context —
// which vocabulary IDs sit where around its containing element and that
// element's ancestors — and a template repeats the same contexts on every
// page. So contexts are interned to integers, level by level, and the
// probability row hangs off the integer of the level-0 context: a repeat
// context costs a few short hashes and a copy, and only a context never
// seen before runs the feature walk and the scorer.

const (
	// contextCacheBytes bounds what one scratch remembers about one
	// model, in bytes of keys, slots and probability rows, so the bound
	// means the same at any class count and window width. A context costs
	// about 100 bytes, most template sites have a few hundred to a few
	// thousand (the benchmark crawl's most varied site reaches 15k over
	// 1,500 pages); the bound exists so that a site whose pages never
	// repeat a context cannot grow a pooled scratch without limit. Past
	// it, new contexts are scored and not remembered.
	contextCacheBytes = 2 << 20
	// scratchCacheBytes bounds what one scratch remembers about all the
	// models it has served: when it turns to another model and its caches
	// together hold more than this, the least recently used go until they
	// do not (so at worst it holds this plus what the model it turned to
	// then adds). It is a bound on memory and not on the number of models:
	// a daemon serving a dozen ordinary sites round-robin keeps every one
	// of their caches. A harvest's scan keeps less (keepOnly): only the
	// caches of the site it is serving.
	scratchCacheBytes = 4 << 20
)

// A cache alone always fits its scratch, so evicting others makes room.
const _ = uint(scratchCacheBytes - contextCacheBytes)

// tupleTable interns int32 tuples: open addressing over slots that carry a
// tuple's hash beside its ID, so a probe compares tuples only on a 32-bit
// hash match and growing the table re-slots without re-hashing. A tuple's
// ID is where its record starts in recs, plus one — unique and stable, not
// dense — so a probe reads one slot and then one run of memory.
type tupleTable struct {
	// recs holds one record per tuple: its length, one word of payload
	// for the owner, then its words.
	recs  []int32
	n     int      // tuples interned
	slots []uint64 // hash<<32 | id; 0 is an empty slot. len is a power of two.
}

// tupleBytes is what interning a tuple of n words is charged against
// contextCacheBytes: its record and four slots — the table doubles at half
// full, so it never holds more than that per tuple.
func tupleBytes(n int) int { return 4*(n+2) + 4*8 }

// hashTuple mixes a tuple two words at a time; the high half of the
// product chain is the well-mixed one.
//
//ceres:allocfree
func hashTuple(key []int32) uint32 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(len(key)) * m
	for len(key) >= 2 {
		h = (h ^ (uint64(uint32(key[0])) | uint64(uint32(key[1]))<<32)) * m
		h ^= h >> 29
		key = key[2:]
	}
	if len(key) == 1 {
		h = (h ^ uint64(uint32(key[0]))) * m
	}
	return uint32((h * m) >> 32)
}

// find returns the ID of key, whose hash is h, or 0.
//
//ceres:allocfree
func (t *tupleTable) find(key []int32, h uint32) int32 {
	if len(t.slots) == 0 {
		return 0
	}
	mask := uint32(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0
		}
		if uint32(s>>32) == h {
			id := int32(uint32(s))
			if rec := t.recs[id-1:]; int(rec[0]) == len(key) && slices.Equal(rec[2:2+len(key)], key) {
				return id
			}
		}
	}
}

// add interns key, which find did not find, with its payload, and returns
// its ID.
func (t *tupleTable) add(key []int32, h uint32, payload int32) int32 {
	t.n++
	if 2*t.n > len(t.slots) {
		old := t.slots
		t.slots = make([]uint64, max(64, 2*len(old)))
		for _, s := range old {
			if s != 0 {
				t.place(s)
			}
		}
	}
	id := int32(len(t.recs)) + 1
	t.recs = append(append(t.recs, int32(len(key)), payload), key...)
	t.place(uint64(h)<<32 | uint64(id))
	return id
}

// payload returns the address of tuple id's payload word.
//
//ceres:allocfree
func (t *tupleTable) payload(id int32) *int32 { return &t.recs[id] }

func (t *tupleTable) place(s uint64) {
	mask := uint32(len(t.slots) - 1)
	i := uint32(s>>32) & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// contextCache is what one scratch remembers about one compiled model.
type contextCache struct {
	cm   *CompiledModel
	used uint64 // the scratch's tick when a page last used the cache

	// kinds interns the kindWidth vocabulary IDs of an element that
	// carries a structural attribute the model knows; an element with a
	// known tag alone is its tag ID, and kinds' IDs follow the tag IDs.
	kinds tupleTable
	// contexts interns context tuples (Featurizer.contextOf). The
	// payload of a level-0 context is the row of probs that holds its
	// class probabilities, -1 until it has one; no other context gets one.
	contexts tupleTable
	probs    []float64
	// bytes is what the cache is charged against contextCacheBytes.
	bytes int
}

// intern returns key's ID in t, one of the cache's two tables, adding it
// with the given payload if it is new and the cache has room: -1 if not.
//
//ceres:allocfree
func (c *contextCache) intern(t *tupleTable, key []int32, payload int32) int32 {
	h := hashTuple(key)
	id := t.find(key, h)
	if id == 0 {
		if c.bytes+tupleBytes(len(key)) > contextCacheBytes {
			return -1
		}
		c.bytes += tupleBytes(len(key))
		id = t.add(key, h, payload)
	}
	return id
}

// kindOf interns the vocabulary IDs of an element with at least one known
// attribute value: an ID above every tag ID, or -1 when the cache is full.
//
//ceres:allocfree
func (c *contextCache) kindOf(ids []int32) int32 {
	id := c.intern(&c.kinds, ids, 0)
	if id < 0 {
		return -1
	}
	return int32(len(c.cm.fz.vocab.tag)) + id
}

// row returns the probability row stored for a level-0 context, nil when
// there is none: the context is -1, or new, or its row did not fit.
//
//ceres:allocfree
func (c *contextCache) row(ctx int32, K int) []float64 {
	if ctx <= 0 {
		return nil
	}
	r := int(*c.contexts.payload(ctx))
	if r < 0 {
		return nil
	}
	return c.probs[r*K : (r+1)*K]
}

// store remembers pr as context ctx's row and reports whether it fit.
func (c *contextCache) store(ctx int32, pr []float64) bool {
	if ctx <= 0 || c.bytes+8*len(pr) > contextCacheBytes {
		return false
	}
	c.bytes += 8 * len(pr)
	*c.contexts.payload(ctx) = int32(len(c.probs) / len(pr))
	c.probs = append(c.probs, pr...)
	return true
}

// cacheFor returns the scratch's cache for cm. Turning to another model
// than the last page's is where the scratch-wide bound is kept.
func (sc *ServeScratch) cacheFor(cm *CompiledModel) *contextCache {
	if c := sc.cache; c != nil && c.cm == cm {
		return c
	}
	sc.tick++
	var cur *contextCache
	total := 0
	for _, c := range sc.caches {
		total += c.bytes
		if c.cm == cm {
			cur = c
		}
	}
	for total > scratchCacheBytes {
		lru := -1
		for i, c := range sc.caches {
			if c != cur && (lru < 0 || c.used < sc.caches[lru].used) {
				lru = i
			}
		}
		total -= sc.caches[lru].bytes
		last := len(sc.caches) - 1
		sc.caches[lru], sc.caches[last] = sc.caches[last], nil
		sc.caches = sc.caches[:last]
		sc.counts.evictions++
	}
	if cur == nil {
		cur = &contextCache{cm: cm}
		sc.caches = append(sc.caches, cur)
	}
	cur.used = sc.tick
	return cur
}

// keepOnly drops every cache the scratch holds for a model other than
// those given, counting each as an eviction. A scan serves one site's
// shard from start to end, and a harvest hands a worker its shards site
// by site, so another model's cache in the scratch a scan checks out is
// a finished site's: keeping it up to the scratch-wide bound would only
// hold memory.
func (sc *ServeScratch) keepOnly(models []*CompiledModel) {
	kept := sc.caches[:0]
	for _, c := range sc.caches {
		if slices.Contains(models, c.cm) {
			kept = append(kept, c)
		} else {
			sc.counts.evictions++
		}
	}
	clear(sc.caches[len(kept):])
	sc.caches = kept
	if sc.cache != nil && !slices.Contains(models, sc.cache.cm) {
		sc.cache = nil
	}
}
