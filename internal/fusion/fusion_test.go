package fusion

import (
	"math"
	"testing"
	"testing/quick"
)

// fuse feeds obs in order to a fresh Accumulator and resolves its facts.
func fuse(obs []Observation, opts Options) []Fact {
	a := NewAccumulator(opts)
	for _, ob := range obs {
		a.Add(ob)
	}
	return a.Facts()
}

func TestFuseCorroboration(t *testing.T) {
	obs := []Observation{
		{Source: "a", Subject: "Film X", Predicate: "director", Object: "Jane Doe", Confidence: 0.8},
		{Source: "b", Subject: "film x", Predicate: "director", Object: "Jane  Doe", Confidence: 0.8},
		{Source: "c", Subject: "Other Film", Predicate: "director", Object: "Someone", Confidence: 0.8},
	}
	facts := fuse(obs, Options{})
	if len(facts) != 2 {
		t.Fatalf("want 2 fused facts, got %v", facts)
	}
	// Two corroborating sources beat one.
	if facts[0].Subject != "Film X" || len(facts[0].Sources) != 2 {
		t.Errorf("corroborated fact should rank first: %+v", facts[0])
	}
	if facts[0].Belief <= facts[1].Belief {
		t.Errorf("corroboration must raise belief: %v vs %v", facts[0].Belief, facts[1].Belief)
	}
	// Noisy-or with prior 0.7 and conf 0.8: 1-(1-0.56)^2 = 0.8064.
	if math.Abs(facts[0].Belief-0.8064) > 1e-9 {
		t.Errorf("belief = %v, want 0.8064", facts[0].Belief)
	}
}

func TestFuseFunctionalPredicate(t *testing.T) {
	obs := []Observation{
		{Source: "a", Subject: "X", Predicate: "birthYear", Object: "1960", Confidence: 0.9},
		{Source: "b", Subject: "X", Predicate: "birthYear", Object: "1960", Confidence: 0.9},
		{Source: "c", Subject: "X", Predicate: "birthYear", Object: "1961", Confidence: 0.6},
	}
	facts := fuse(obs, Options{Functional: map[string]bool{"birthYear": true}})
	if len(facts) != 1 {
		t.Fatalf("functional predicate must keep one object: %v", facts)
	}
	if facts[0].Object != "1960" {
		t.Errorf("majority object lost: %+v", facts[0])
	}
	// The competing observation discounts belief below the raw noisy-or.
	raw := 1 - (1-0.63)*(1-0.63)
	if facts[0].Belief >= raw {
		t.Errorf("competition should discount: %v >= %v", facts[0].Belief, raw)
	}
}

func TestFuseSourcePriors(t *testing.T) {
	obs := []Observation{
		{Source: "trusted", Subject: "X", Predicate: "p", Object: "v1", Confidence: 0.9},
		{Source: "spam", Subject: "X", Predicate: "p", Object: "v2", Confidence: 0.9},
	}
	facts := fuse(obs, Options{SourcePriors: map[string]float64{"trusted": 0.95, "spam": 0.1}})
	if facts[0].Object != "v1" {
		t.Errorf("trusted source should win: %+v", facts)
	}
}

func TestFuseIgnoresEmpty(t *testing.T) {
	obs := []Observation{
		{Source: "a", Subject: "  ", Predicate: "p", Object: "v", Confidence: 1},
		{Source: "a", Subject: "s", Predicate: "", Object: "v", Confidence: 1},
		{Source: "a", Subject: "s", Predicate: "p", Object: "!!", Confidence: 1},
	}
	if got := fuse(obs, Options{}); len(got) != 0 {
		t.Errorf("degenerate observations fused: %v", got)
	}
}

func TestFuseBeliefBounds(t *testing.T) {
	f := func(confs []float64) bool {
		var obs []Observation
		for i, c := range confs {
			obs = append(obs, Observation{
				Source: string(rune('a' + i%5)), Subject: "s", Predicate: "p",
				Object: "o", Confidence: math.Mod(math.Abs(c), 1),
			})
		}
		for _, fact := range fuse(obs, Options{}) {
			if fact.Belief < 0 || fact.Belief >= 1.0000001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFuseMonotoneInSources(t *testing.T) {
	base := []Observation{{Source: "a", Subject: "s", Predicate: "p", Object: "o", Confidence: 0.5}}
	b1 := fuse(base, Options{})[0].Belief
	more := append(base, Observation{Source: "b", Subject: "s", Predicate: "p", Object: "o", Confidence: 0.5})
	b2 := fuse(more, Options{})[0].Belief
	if b2 <= b1 {
		t.Errorf("extra evidence must raise belief: %v -> %v", b1, b2)
	}
}

func TestFuseDeterministicOrder(t *testing.T) {
	obs := []Observation{
		{Source: "a", Subject: "s1", Predicate: "p", Object: "o1", Confidence: 0.5},
		{Source: "a", Subject: "s2", Predicate: "p", Object: "o2", Confidence: 0.5},
		{Source: "a", Subject: "s0", Predicate: "p", Object: "o0", Confidence: 0.5},
	}
	a := fuse(obs, Options{})
	b := fuse(obs, Options{})
	for i := range a {
		if a[i].Subject != b[i].Subject {
			t.Fatalf("nondeterministic order")
		}
	}
	// Equal beliefs: sorted by subject.
	if a[0].Subject != "s0" || a[2].Subject != "s2" {
		t.Errorf("tie-break order wrong: %v", a)
	}
}
