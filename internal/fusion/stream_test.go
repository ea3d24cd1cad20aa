package fusion

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"ceres/internal/strmatch"
)

// fuseLegacy is the pre-Accumulator Fuse, kept verbatim as the reference
// for the differential test: the streaming path must keep its output
// byte-identical.
func fuseLegacy(obs []Observation, opts Options) []Fact {
	opts = opts.withDefaults()
	type key struct{ s, p, o string }
	type acc struct {
		fact     Fact
		oneMinus float64
		sources  map[string]bool
	}
	accs := map[key]*acc{}
	for _, ob := range obs {
		k := key{
			strmatch.Normalize(ob.Subject),
			ob.Predicate,
			strmatch.Normalize(ob.Object),
		}
		if k.s == "" || k.o == "" || ob.Predicate == "" {
			continue
		}
		a := accs[k]
		if a == nil {
			a = &acc{
				fact:     Fact{Subject: ob.Subject, Predicate: ob.Predicate, Object: ob.Object},
				oneMinus: 1,
				sources:  map[string]bool{},
			}
			accs[k] = a
		}
		ev := opts.prior(ob.Source) * clamp01(ob.Confidence)
		a.oneMinus *= 1 - ev
		a.sources[ob.Source] = true
	}
	bySubjPred := map[[2]string][]*acc{}
	for k, a := range accs {
		a.fact.Belief = 1 - a.oneMinus
		for s := range a.sources {
			a.fact.Sources = append(a.fact.Sources, s)
		}
		sort.Strings(a.fact.Sources)
		bySubjPred[[2]string{k.s, k.p}] = append(bySubjPred[[2]string{k.s, k.p}], a)
	}
	var out []Fact
	for sp, group := range bySubjPred {
		if opts.Functional[sp[1]] && len(group) > 1 {
			sort.Slice(group, func(i, j int) bool {
				if group[i].fact.Belief != group[j].fact.Belief {
					return group[i].fact.Belief > group[j].fact.Belief
				}
				return group[i].fact.Object < group[j].fact.Object
			})
			winner := group[0].fact
			winner.Belief = clamp01(winner.Belief * (1 - group[1].fact.Belief/2))
			out = append(out, winner)
			continue
		}
		for _, a := range group {
			out = append(out, a.fact)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if math.Abs(a.Belief-b.Belief) > 1e-12 {
			return a.Belief > b.Belief
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		return a.Object < b.Object
	})
	return out
}

// diffObservations exercises corroboration, repetition, functional
// conflicts, per-source priors, normalization folding and discardable
// observations at once. Confidence values come from a coarse grid so
// distinct facts never land within the 1e-12 ordering epsilon of each
// other unless they are exactly tied (exact ties break on the
// subject/predicate/object key, which is order-independent).
func diffObservations() []Observation {
	var obs []Observation
	sites := []string{"alpha.example", "beta.example", "gamma.example", "delta.example"}
	subjects := []string{"The Harbor", "Night Train", "Falling Leaves", "Red Canyon"}
	confs := []float64{0.55, 0.65, 0.8, 0.9}
	for i, subj := range subjects {
		for j, site := range sites {
			obs = append(obs,
				Observation{Source: site, Subject: subj, Predicate: "directedBy", Object: "Jane Doe", Confidence: confs[(i+j)%len(confs)]},
				Observation{Source: site, Subject: subj, Predicate: "genre", Object: []string{"Drama", "Comedy"}[j%2], Confidence: confs[j%len(confs)]},
			)
			if j%2 == 0 {
				// Functional conflicts: two release years competing.
				obs = append(obs, Observation{Source: site, Subject: subj, Predicate: "releaseYear", Object: []string{"1987", "1988"}[i%2], Confidence: confs[i%len(confs)]})
			}
		}
		// Normalization folding: surface variants of one fact.
		obs = append(obs,
			Observation{Source: "alpha.example", Subject: "  " + subj + "  ", Predicate: "directedBy", Object: "JANE  DOE", Confidence: 0.7},
			// Discardable: empty object / predicate.
			Observation{Source: "beta.example", Subject: subj, Predicate: "genre", Object: "   ", Confidence: 0.9},
			Observation{Source: "beta.example", Subject: subj, Predicate: "", Object: "x", Confidence: 0.9},
		)
	}
	return obs
}

func factBytes(t *testing.T, facts []Fact) []byte {
	t.Helper()
	b, err := json.Marshal(facts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFuseMatchesLegacy proves the Accumulator-backed Fuse keeps the
// legacy output byte-identical (beliefs to the last bit, order, sources).
func TestFuseMatchesLegacy(t *testing.T) {
	obs := diffObservations()
	opts := Options{
		SourcePriors: map[string]float64{"alpha.example": 0.9, "delta.example": 0.4},
		Functional:   map[string]bool{"releaseYear": true, "directedBy": true},
	}
	got := factBytes(t, fuse(obs, opts))
	want := factBytes(t, fuseLegacy(obs, opts))
	if !bytes.Equal(got, want) {
		t.Fatalf("streaming Fuse diverged from legacy:\n got %s\nwant %s", got, want)
	}
}

// TestAccumulatorStreams proves feeding observations one at a time equals
// the one-shot Fuse, and that Facts is repeatable and interleavable.
func TestAccumulatorStreams(t *testing.T) {
	obs := diffObservations()
	opts := Options{Functional: map[string]bool{"releaseYear": true}}
	want := factBytes(t, fuse(obs, opts))

	a := NewAccumulator(opts)
	for i, ob := range obs {
		a.Add(ob)
		if i == len(obs)/2 {
			// Facts mid-stream must not consume or corrupt the aggregates.
			_ = a.Facts()
		}
	}
	if got := factBytes(t, a.Facts()); !bytes.Equal(got, want) {
		t.Fatalf("accumulator diverged from Fuse:\n got %s\nwant %s", got, want)
	}
	if got := factBytes(t, a.Facts()); !bytes.Equal(got, want) {
		t.Fatalf("second Facts call diverged")
	}
}

func TestAccumulatorLen(t *testing.T) {
	a := NewAccumulator(Options{})
	a.Add(Observation{Source: "s", Subject: "X", Predicate: "p", Object: "v", Confidence: 0.9})
	a.Add(Observation{Source: "t", Subject: "x", Predicate: "p", Object: "V", Confidence: 0.9}) // folds
	a.Add(Observation{Source: "s", Subject: "X", Predicate: "p", Object: "w", Confidence: 0.9})
	a.Add(Observation{Source: "s", Subject: "", Predicate: "p", Object: "w", Confidence: 0.9}) // discarded
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}
