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
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

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

// key identifies one fused fact: normalized subject/object, exact
// predicate.
type key struct{ s, p, o string }

// acc is the running aggregate of one fact.
type acc struct {
	fact     Fact
	oneMinus float64 // Π (1 - prior·confidence)
	// sources holds the distinct sites asserting the fact, in first-seen
	// order. A fact rarely has more than a handful of sources, so a
	// linear-scanned slice beats a per-fact map.
	sources []string
}

// Accumulator fuses observations one at a time, so a crawl-scale harvest
// can stream its extractions through fusion without ever materializing
// the observation list. Memory is proportional to the number of distinct
// (subject, predicate, object) facts, not to the number of observations.
//
// Add observations in a deterministic order when reproducible output
// matters: belief combines floating-point products, so observation order
// feeds the final bits. Facts does not consume the accumulator — it may
// be called repeatedly, interleaved with further Adds.
type Accumulator struct {
	opts Options
	// accs indexes into pool, which stores the aggregates contiguously:
	// one slice growth instead of one allocation per distinct fact.
	accs  map[key]int32
	pool  []acc
	order []key // insertion order, for deterministic grouping
	// norm caches Normalize results keyed by the raw string: harvest
	// observations repeat the same subjects and objects across pages, and
	// normalization (rune folding) dominates Add without it. Memory grows
	// with distinct raw strings — the same order as the fact aggregates.
	norm map[string]string

	// Facts scratch, reused across calls: group index, per-group counts
	// and the grouped-fact arena. Only the returned slice escapes.
	gIdx   map[[2]string]int32
	gOf    []int32
	gCount []int32
	gFacts []Fact
}

// accPool recycles accumulator storage between Release and the next
// NewAccumulator: the maps keep their buckets and the aggregate pool its
// capacity, so a harvest that fuses run after run stops paying the
// grow-from-empty allocations after the first.
var accPool = sync.Pool{New: func() any {
	return &Accumulator{accs: map[key]int32{}, norm: map[string]string{}}
}}

// NewAccumulator builds an empty accumulator over the fusion options.
func NewAccumulator(opts Options) *Accumulator {
	c := accPool.Get().(*Accumulator)
	c.opts = opts.withDefaults()
	return c
}

// Release returns the accumulator's internal storage to a package pool
// for future NewAccumulator calls. Facts it has already resolved remain
// valid — they are copies — but the accumulator itself must not be used
// afterwards. Release is an optimization, never an obligation: an
// unreleased accumulator is ordinary garbage.
func (c *Accumulator) Release() {
	// Drop string references before pooling, but keep each slot's sources
	// capacity — the next run re-fills the same slots and would otherwise
	// re-grow every per-fact slice from nil.
	for i := range c.pool {
		a := &c.pool[i]
		clear(a.sources)
		a.fact = Fact{}
		a.oneMinus = 0
		a.sources = a.sources[:0]
	}
	c.pool = c.pool[:0]
	clear(c.order)
	c.order = c.order[:0]
	clear(c.accs)
	clear(c.gIdx)
	c.gOf = c.gOf[:0]
	c.gCount = c.gCount[:0]
	// The normalize cache survives reuse — Normalize is pure, so stale
	// entries stay correct and a steady-state harvest keeps it warm. Cap
	// it so adversarially distinct strings cannot grow it without bound.
	if len(c.norm) > 1<<16 {
		clear(c.norm)
	}
	c.opts = Options{}
	accPool.Put(c)
}

func (c *Accumulator) normalize(s string) string {
	if n, ok := c.norm[s]; ok {
		return n
	}
	n := strmatch.Normalize(s)
	c.norm[s] = n
	return n
}

// Add folds one observation into the running aggregates. Observations
// with an empty predicate, or whose subject or object normalize to the
// empty string, are ignored (they cannot name a fact).
func (c *Accumulator) Add(ob Observation) {
	k := key{
		c.normalize(ob.Subject),
		ob.Predicate,
		c.normalize(ob.Object),
	}
	if k.s == "" || k.o == "" || ob.Predicate == "" {
		return
	}
	i, ok := c.accs[k]
	if !ok {
		i = int32(len(c.pool))
		if len(c.pool) < cap(c.pool) {
			// Reuse the released slot in place: an append with a fresh
			// literal would wipe the sources capacity Release preserved.
			c.pool = c.pool[:i+1]
			a := &c.pool[i]
			a.fact = Fact{Subject: ob.Subject, Predicate: ob.Predicate, Object: ob.Object}
			a.oneMinus = 1
		} else {
			c.pool = append(c.pool, acc{
				fact:     Fact{Subject: ob.Subject, Predicate: ob.Predicate, Object: ob.Object},
				oneMinus: 1,
			})
		}
		c.accs[k] = i
		c.order = append(c.order, k)
	}
	a := &c.pool[i]
	ev := c.opts.prior(ob.Source) * clamp01(ob.Confidence)
	a.oneMinus *= 1 - ev
	for _, s := range a.sources {
		if s == ob.Source {
			return
		}
	}
	a.sources = append(a.sources, ob.Source)
}

// Len returns how many distinct facts have been accumulated.
func (c *Accumulator) Len() int { return len(c.accs) }

// Facts resolves the aggregates into fused facts, sorted by descending
// belief then subject/predicate/object.
func (c *Accumulator) Facts() []Fact {
	if len(c.order) == 0 {
		return nil // preserve nil-vs-empty for callers that serialize
	}
	// Group facts per (subject, predicate) in first-observation order for
	// functional-predicate resolution. The grouping scratch (index map,
	// ordinals, counts, grouped arena) lives on the accumulator and is
	// reused call to call; only the returned slice escapes.
	if c.gIdx == nil {
		c.gIdx = make(map[[2]string]int32, len(c.order))
	} else {
		clear(c.gIdx)
	}
	c.gOf = c.gOf[:0]
	c.gCount = c.gCount[:0]
	for _, k := range c.order {
		sp := [2]string{k.s, k.p}
		gi, ok := c.gIdx[sp]
		if !ok {
			gi = int32(len(c.gCount))
			c.gIdx[sp] = gi
			c.gCount = append(c.gCount, 0)
		}
		c.gOf = append(c.gOf, gi)
		c.gCount[gi]++
	}
	// Prefix-sum the counts into write cursors, then scatter the facts
	// into one group-major arena.
	if cap(c.gFacts) < len(c.order) {
		c.gFacts = make([]Fact, len(c.order))
	}
	gFacts := c.gFacts[:len(c.order)]
	off := int32(0)
	for gi, n := range c.gCount {
		c.gCount[gi] = off
		off += n
	}
	// One arena for every fact's Sources copy instead of a slice per
	// fact; three-index subslices keep the copies independent.
	total := 0
	for _, k := range c.order {
		total += len(c.pool[c.accs[k]].sources)
	}
	srcArena := make([]string, 0, total)
	for oi, k := range c.order {
		a := &c.pool[c.accs[k]]
		f := a.fact
		f.Belief = 1 - a.oneMinus
		start := len(srcArena)
		srcArena = append(srcArena, a.sources...)
		f.Sources = srcArena[start:len(srcArena):len(srcArena)]
		sort.Strings(f.Sources)
		gi := c.gOf[oi]
		gFacts[c.gCount[gi]] = f
		c.gCount[gi]++
	}

	out := make([]Fact, 0, len(c.order))
	start := 0
	for _, end := range c.gCount {
		g := gFacts[start:end]
		start = int(end)
		if len(g) > 1 && c.opts.Functional[g[0].Predicate] {
			slices.SortFunc(g, func(a, b Fact) int {
				switch {
				case a.Belief > b.Belief:
					return -1
				case a.Belief < b.Belief:
					return 1
				}
				return strings.Compare(a.Object, b.Object)
			})
			winner := g[0]
			// Competing evidence discounts the winner.
			winner.Belief = clamp01(winner.Belief * (1 - g[1].Belief/2))
			out = append(out, winner)
			continue
		}
		out = append(out, g...)
	}
	// Drop string references from the scratch arena so pooled reuse does
	// not pin page text.
	clear(gFacts)
	slices.SortFunc(out, func(a, b Fact) int {
		if math.Abs(a.Belief-b.Belief) > 1e-12 {
			if a.Belief > b.Belief {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Subject, b.Subject); c != 0 {
			return c
		}
		if c := strings.Compare(a.Predicate, b.Predicate); c != 0 {
			return c
		}
		return strings.Compare(a.Object, b.Object)
	})
	return out
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
