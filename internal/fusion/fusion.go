// Package fusion aggregates extractions from many sites into fused facts
// with combined confidence — the knowledge-fusion step the paper defers to
// Dong et al. (KDD'14 / PVLDB'14) and suggests for cleaning its
// CommonCrawl harvest ("We leave for future work to investigate how many
// of these aforementioned mistakes can be solved by applying knowledge
// fusion on the extraction results", §5.5.1).
//
// The model is a simplified Knowledge Vault scorer: each source site has a
// reliability prior; repeated observations of the same (subject,
// predicate, object) across sites raise belief via a noisy-or; for
// functional (single-valued) predicates, competing objects split the
// belief mass.
package fusion

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"

	"ceres/internal/strmatch"
)

// Observation is one extracted triple from one source.
type Observation struct {
	Source     string // site identifier
	Subject    string
	Predicate  string
	Object     string
	Confidence float64
}

// Fact is a fused triple with combined belief.
type Fact struct {
	Subject   string
	Predicate string
	Object    string
	// Belief in (0,1): the noisy-or combination of per-source evidence.
	Belief float64
	// Sources lists the distinct sites asserting the fact, sorted.
	Sources []string
}

// Options tunes fusion.
type Options struct {
	// SourcePrior is the default reliability of a site (default 0.7).
	SourcePrior float64
	// SourcePriors overrides the prior per site.
	SourcePriors map[string]float64
	// Functional lists predicates that admit a single object per subject;
	// for those, only the highest-belief object survives and its belief
	// is discounted by the runner-up's (a one-step exclusivity
	// correction).
	Functional map[string]bool
}

func (o Options) withDefaults() Options {
	if o.SourcePrior == 0 {
		o.SourcePrior = 0.7
	}
	return o
}

func (o Options) prior(src string) float64 {
	if p, ok := o.SourcePriors[src]; ok {
		return p
	}
	return o.SourcePrior
}

// inlineSources is how many distinct sources a fact's record holds in
// place: most facts are asserted by one to three sites, and the sources
// of a fact seen on more go to the accumulator's overflow arena.
const inlineSources = 3

// record is the running aggregate of one fact: a fixed-size entry keyed
// by the IDs of its normalized subject, its predicate and its normalized
// object.
type record struct {
	oneMinus   float64 // Π (1 - prior·confidence)
	s, p, o    uint32  // the key
	rawS, rawO uint32  // subject and object as first observed
	// nsrc counts the distinct sources, site IDs in first-seen order: the
	// first inlineSources in src, the rest in the arena from more on.
	nsrc uint32
	src  [inlineSources]uint32
	more uint32
}

// Accumulator fuses observations one at a time, so a crawl-scale harvest
// can stream its extractions through fusion without ever materializing
// the observation list. Memory is proportional to the number of distinct
// facts and strings, not to the number of observations: each distinct
// subject or object string, predicate and source is stored once and
// numbered, and a fact is a fixed-size record of those numbers. A dropped
// accumulator is ordinary garbage; it holds no pooled storage.
//
// Add observations in a deterministic order when reproducible output
// matters: belief combines floating-point products, so observation order
// feeds the final bits. Facts does not consume the accumulator — it may
// be called repeatedly, interleaved with further Adds.
type Accumulator struct {
	opts Options

	// The string table. Each distinct subject or object string gets a raw
	// ID once (rawIDs; rawStr maps back) and is normalized once: rawNorm
	// holds the ID of its normalized form in normIDs. Both number from 1;
	// ID 0 is the empty string, which names no fact.
	rawIDs  map[string]uint32
	rawStr  []string
	rawNorm []uint32
	normIDs map[string]uint32
	normBuf []byte

	// Predicates and sources, numbered from 0 in first-seen order; prior
	// is each source's reliability. lastSite is the source of the previous
	// observation: a replay hands over a shard's triples, all of one site,
	// in a row. lastPred is the previous observation's predicate, and
	// lastSubj its subject's raw ID: a page's triples share the subject
	// and come in runs of one predicate.
	predIDs  map[string]uint32
	predStr  []string
	siteIDs  map[string]uint32
	siteStr  []string
	prior    []float64
	lastSite uint32
	lastPred uint32
	lastSubj uint32

	// recs holds the facts in first-observation order. slots indexes them
	// by key, open-addressed (record index + 1; 0 is free) and at most half
	// full; a probe starts at the top bits of the key's hash, shift being
	// 64 - log2(len(slots)). arena holds the sources past a record's inline
	// ones: a run of max(4, 2^k) IDs per record, copied to the end at twice
	// the size when it fills.
	recs  []record
	slots []uint32
	shift uint
	arena []uint32
}

// NewAccumulator builds an empty accumulator over the fusion options.
func NewAccumulator(opts Options) *Accumulator {
	return &Accumulator{
		opts:    opts.withDefaults(),
		rawIDs:  map[string]uint32{},
		rawStr:  []string{""},
		rawNorm: []uint32{0},
		normIDs: map[string]uint32{},
		predIDs: map[string]uint32{},
		siteIDs: map[string]uint32{},
	}
}

// Add folds one observation into the running aggregates. Observations
// with an empty predicate, or whose subject or object normalize to the
// empty string, are ignored (they cannot name a fact).
func (c *Accumulator) Add(ob Observation) {
	if ob.Predicate == "" {
		return
	}
	rawS := c.lastSubj
	if ob.Subject != c.rawStr[rawS] {
		rawS = c.intern(ob.Subject)
		c.lastSubj = rawS
	}
	rawO := c.intern(ob.Object)
	s, o := c.rawNorm[rawS], c.rawNorm[rawO]
	if s == 0 || o == 0 {
		return
	}
	r := &c.recs[c.find(s, c.predicate(ob.Predicate), o, rawS, rawO)]
	site := c.site(ob.Source)
	ev := float64(c.prior[site] * clamp01(ob.Confidence))
	r.oneMinus *= 1 - ev
	c.addSource(r, site)
}

// intern returns the raw ID of a subject or object string, numbering it
// and its normalized form (rawNorm) when it is new.
func (c *Accumulator) intern(s string) (raw uint32) {
	if s == "" {
		return 0
	}
	if raw, ok := c.rawIDs[s]; ok {
		return raw
	}
	raw = uint32(len(c.rawStr))
	c.rawIDs[s] = raw
	c.rawStr = append(c.rawStr, s)
	c.normBuf = strmatch.NormalizeInto(c.normBuf[:0], s)
	var norm uint32
	if len(c.normBuf) > 0 {
		var ok bool
		if norm, ok = c.normIDs[string(c.normBuf)]; !ok {
			norm = uint32(len(c.normIDs)) + 1
			c.normIDs[string(c.normBuf)] = norm
		}
	}
	c.rawNorm = append(c.rawNorm, norm)
	return raw
}

func (c *Accumulator) predicate(p string) uint32 {
	if len(c.predStr) > 0 && p == c.predStr[c.lastPred] {
		return c.lastPred
	}
	id, ok := c.predIDs[p]
	if !ok {
		id = uint32(len(c.predStr))
		c.predIDs[p] = id
		c.predStr = append(c.predStr, p)
	}
	c.lastPred = id
	return id
}

func (c *Accumulator) site(src string) uint32 {
	if len(c.siteStr) > 0 && src == c.siteStr[c.lastSite] {
		return c.lastSite
	}
	id, ok := c.siteIDs[src]
	if !ok {
		id = uint32(len(c.siteStr))
		c.siteIDs[src] = id
		c.siteStr = append(c.siteStr, src)
		c.prior = append(c.prior, c.opts.prior(src))
	}
	c.lastSite = id
	return id
}

// find returns the index of the record keyed (s, p, o), appending one
// first observed as (rawS, rawO) when there is none.
func (c *Accumulator) find(s, p, o, rawS, rawO uint32) int {
	if 2*(len(c.recs)+1) > len(c.slots) {
		c.grow()
	}
	mask := len(c.slots) - 1
	for i := c.slot(s, p, o); ; i = (i + 1) & mask {
		e := c.slots[i]
		if e == 0 {
			c.slots[i] = uint32(len(c.recs)) + 1
			c.recs = append(c.recs, record{oneMinus: 1, s: s, p: p, o: o, rawS: rawS, rawO: rawO})
			return len(c.recs) - 1
		}
		if r := &c.recs[e-1]; r.s == s && r.o == o && r.p == p {
			return int(e - 1)
		}
	}
}

// slot is where the probe for key (s, p, o) starts.
func (c *Accumulator) slot(s, p, o uint32) int {
	h := (uint64(s)<<32 | uint64(o)) ^ uint64(p)*0xbf58476d1ce4e5b9
	return int(h * 0x9e3779b97f4a7c15 >> c.shift)
}

// grow doubles the slot table, to 1,024 slots at first, and indexes every
// record again.
func (c *Accumulator) grow() {
	n := max(2*len(c.slots), 1024)
	c.slots = make([]uint32, n)
	c.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for k := range c.recs {
		r := &c.recs[k]
		i := c.slot(r.s, r.p, r.o)
		for c.slots[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		c.slots[i] = uint32(k) + 1
	}
}

// overflow is r's sources past the inline ones.
func (c *Accumulator) overflow(r *record) []uint32 {
	if r.nsrc <= inlineSources {
		return nil
	}
	return c.arena[r.more : r.more+r.nsrc-inlineSources]
}

// addSource adds site to r's distinct sources unless it is one already.
func (c *Accumulator) addSource(r *record, site uint32) {
	n := r.nsrc
	if slices.Contains(r.src[:min(n, inlineSources)], site) {
		return
	}
	if n < inlineSources {
		r.src[n] = site
		r.nsrc++
		return
	}
	run := c.overflow(r)
	if slices.Contains(run, site) {
		return
	}
	switch m := len(run); {
	case m == 0:
		r.more = uint32(len(c.arena))
		c.arena = append(c.arena, site, 0, 0, 0)
	case m >= 4 && m&(m-1) == 0: // the run is full: copy it to the end, doubled
		r.more = uint32(len(c.arena))
		c.arena = append(append(c.arena, run...), site)
		c.arena = append(c.arena, make([]uint32, m-1)...)
	default:
		c.arena[r.more+uint32(m)] = site
	}
	r.nsrc++
}

// Len returns how many distinct facts have been accumulated.
func (c *Accumulator) Len() int { return len(c.recs) }

// Facts resolves the aggregates into fused facts, sorted by descending
// belief then subject/predicate/object.
func (c *Accumulator) Facts() []Fact {
	if len(c.recs) == 0 {
		return nil // preserve nil-vs-empty for callers that serialize
	}
	// Group the facts per (subject, predicate) in first-observation order
	// for functional-predicate resolution: number the groups, count them,
	// prefix-sum the counts into cursors and scatter the record indices
	// into one group-major list.
	groups := make(map[uint64]int32, len(c.recs))
	gOf := make([]int32, len(c.recs))
	var gEnd []int32
	for k := range c.recs {
		key := uint64(c.recs[k].s)<<32 | uint64(c.recs[k].p)
		g, ok := groups[key]
		if !ok {
			g = int32(len(gEnd))
			groups[key] = g
			gEnd = append(gEnd, 0)
		}
		gOf[k] = g
		gEnd[g]++
	}
	off := int32(0)
	for g, n := range gEnd {
		gEnd[g] = off
		off += n
	}
	byGroup := make([]int32, len(c.recs))
	for k, g := range gOf {
		byGroup[gEnd[g]] = int32(k)
		gEnd[g]++
	}

	// From here on a fact is its record's index and its belief. Strings
	// compare through their ranks, which order as strings.Compare does, so
	// every comparison — and with it the order and the belief bits — is
	// the one the strings themselves would give.
	belief := make([]float64, len(c.recs))
	for k := range c.recs {
		belief[k] = 1 - c.recs[k].oneMinus
	}
	rank, predRank := ranks(c.rawStr), ranks(c.predStr)
	type entry struct {
		rec    int32
		belief float64
	}
	out := make([]entry, 0, len(c.recs))
	start := int32(0)
	for _, end := range gEnd {
		g := byGroup[start:end]
		start = end
		if len(g) > 1 && c.opts.Functional[c.predStr[c.recs[g[0]].p]] {
			slices.SortFunc(g, func(a, b int32) int {
				switch {
				case belief[a] > belief[b]:
					return -1
				case belief[a] < belief[b]:
					return 1
				}
				return cmp.Compare(rank[c.recs[a].rawO], rank[c.recs[b].rawO])
			})
			// Competing evidence discounts the winner. x/2 compiles to a
			// product; float64 keeps it out of a fused multiply-add.
			out = append(out, entry{g[0], clamp01(belief[g[0]] * (1 - float64(belief[g[1]]/2)))})
			continue
		}
		for _, k := range g {
			out = append(out, entry{k, belief[k]})
		}
	}
	slices.SortFunc(out, func(a, b entry) int {
		if math.Abs(a.belief-b.belief) > 1e-12 {
			if a.belief > b.belief {
				return -1
			}
			return 1
		}
		ra, rb := &c.recs[a.rec], &c.recs[b.rec]
		if d := cmp.Compare(rank[ra.rawS], rank[rb.rawS]); d != 0 {
			return d
		}
		if d := cmp.Compare(predRank[ra.p], predRank[rb.p]); d != 0 {
			return d
		}
		return cmp.Compare(rank[ra.rawO], rank[rb.rawO])
	})

	// Strings only for the facts returned. One arena holds every fact's
	// Sources; three-index subslices keep the copies independent.
	total := 0
	for _, e := range out {
		total += int(c.recs[e.rec].nsrc)
	}
	srcArena := make([]string, 0, total)
	facts := make([]Fact, len(out))
	for i, e := range out {
		r := &c.recs[e.rec]
		from := len(srcArena)
		for _, id := range r.src[:min(r.nsrc, inlineSources)] {
			srcArena = append(srcArena, c.siteStr[id])
		}
		for _, id := range c.overflow(r) {
			srcArena = append(srcArena, c.siteStr[id])
		}
		sources := srcArena[from:len(srcArena):len(srcArena)]
		slices.Sort(sources)
		facts[i] = Fact{
			Subject:   c.rawStr[r.rawS],
			Predicate: c.predStr[r.p],
			Object:    c.rawStr[r.rawO],
			Belief:    e.belief,
			Sources:   sources,
		}
	}
	return facts
}

// ranks numbers distinct strings by their order under strings.Compare, so
// that comparing two ranks gives what comparing the strings would.
func ranks(strs []string) []uint32 {
	order := make([]int32, len(strs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(strs[a], strs[b]) })
	rank := make([]uint32, len(strs))
	for r, i := range order {
		rank[i] = uint32(r)
	}
	return rank
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
