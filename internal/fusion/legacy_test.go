package fusion

import (
	"math"
	"slices"
	"sort"
	"strings"

	"ceres/internal/strmatch"
)

// LegacyAccumulator is the string-keyed Accumulator this package had
// before facts were keyed on interned IDs, frozen as the reference that
// FuzzAccumulator holds the current one to. Add, Len and Facts are as they
// were; only the storage recycling (Release and its pool), which had no
// say in the output, is left out. Do not change it.
type LegacyAccumulator struct {
	opts Options
	// accs indexes into pool, which stores the aggregates contiguously:
	// one slice growth instead of one allocation per distinct fact.
	accs  map[legacyKey]int32
	pool  []legacyAcc
	order []legacyKey // insertion order, for deterministic grouping
	// norm caches Normalize results keyed by the raw string.
	norm map[string]string

	// Facts scratch, reused across calls: group index, per-group counts
	// and the grouped-fact arena. Only the returned slice escapes.
	gIdx   map[[2]string]int32
	gOf    []int32
	gCount []int32
	gFacts []Fact
}

// legacyKey identifies one fused fact: normalized subject/object, exact
// predicate.
type legacyKey struct{ s, p, o string }

// legacyAcc is the running aggregate of one fact.
type legacyAcc struct {
	fact     Fact
	oneMinus float64 // Π (1 - prior·confidence)
	// sources holds the distinct sites asserting the fact, in first-seen
	// order.
	sources []string
}

// NewLegacyAccumulator builds an empty legacy accumulator over the fusion
// options.
func NewLegacyAccumulator(opts Options) *LegacyAccumulator {
	return &LegacyAccumulator{
		opts: opts.withDefaults(),
		accs: map[legacyKey]int32{},
		norm: map[string]string{},
	}
}

func (c *LegacyAccumulator) normalize(s string) string {
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
func (c *LegacyAccumulator) Add(ob Observation) {
	k := legacyKey{
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
			c.pool = c.pool[:i+1]
			a := &c.pool[i]
			a.fact = Fact{Subject: ob.Subject, Predicate: ob.Predicate, Object: ob.Object}
			a.oneMinus = 1
		} else {
			c.pool = append(c.pool, legacyAcc{
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
func (c *LegacyAccumulator) Len() int { return len(c.accs) }

// Facts resolves the aggregates into fused facts, sorted by descending
// belief then subject/predicate/object.
func (c *LegacyAccumulator) Facts() []Fact {
	if len(c.order) == 0 {
		return nil // preserve nil-vs-empty for callers that serialize
	}
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
	if cap(c.gFacts) < len(c.order) {
		c.gFacts = make([]Fact, len(c.order))
	}
	gFacts := c.gFacts[:len(c.order)]
	off := int32(0)
	for gi, n := range c.gCount {
		c.gCount[gi] = off
		off += n
	}
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
