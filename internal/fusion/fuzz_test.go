package fusion_test

import (
	"bytes"
	"strings"
	"testing"

	"ceres/internal/fusion"
	"ceres/internal/jsonl"
)

// FuzzAccumulator holds the ID-keyed Accumulator to the string-keyed one
// it replaced, frozen as LegacyAccumulator, on arbitrary observation
// streams: at every Facts call, mid-stream or at the end, the two give
// the same facts — byte for byte as jsonl.AppendFact writes them, nil
// where the other is nil — and the same Len. A stream is text, one step
// per line:
//
//	source|subject|predicate|object|c   Add, with confidence (c mod 10)/8
//	?                                   Facts of both, compared
//	!functional p                       p is a functional predicate
//	!prior site d                       SourcePriors[site] = (d mod 10)/10
//	!default d                          SourcePrior = (d mod 10)/10, 0 the default
//
// An option line holds for the whole stream, wherever it stands. The
// committed corpus has strings that normalize alike or to nothing,
// repeated sources and more sources per fact than a record holds in
// place, functional predicates with tied beliefs, per-source priors and
// Facts called mid-stream.
func FuzzAccumulator(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var opts fusion.Options
		var steps []string
		for _, line := range strings.Split(string(data), "\n") {
			cmd, arg, _ := strings.Cut(line, " ")
			switch cmd {
			case "!functional":
				if opts.Functional == nil {
					opts.Functional = map[string]bool{}
				}
				opts.Functional[arg] = true
			case "!prior":
				site, d, _ := strings.Cut(arg, " ")
				if opts.SourcePriors == nil {
					opts.SourcePriors = map[string]float64{}
				}
				opts.SourcePriors[site] = digit(d) / 10
			case "!default":
				opts.SourcePrior = digit(arg) / 10
			default:
				steps = append(steps, line)
			}
		}
		got, want := fusion.NewAccumulator(opts), fusion.NewLegacyAccumulator(opts)
		check := func() {
			g, w := got.Facts(), want.Facts()
			if gb, wb := factLines(t, g), factLines(t, w); !bytes.Equal(gb, wb) || (g == nil) != (w == nil) {
				t.Fatalf("facts differ from the legacy accumulator's:\n got %s\nwant %s", gb, wb)
			}
			if got.Len() != want.Len() {
				t.Fatalf("Len = %d, legacy %d", got.Len(), want.Len())
			}
		}
		for _, step := range steps {
			if step == "?" {
				check()
				continue
			}
			var field [5]string
			copy(field[:], strings.SplitN(step, "|", 5))
			ob := fusion.Observation{Source: field[0], Subject: field[1], Predicate: field[2], Object: field[3], Confidence: digit(field[4]) / 8}
			got.Add(ob)
			want.Add(ob)
		}
		check()
	})
}

// digit is the first byte of s as a decimal digit, mod 10; 0 when s is
// empty.
func digit(s string) float64 {
	if s == "" {
		return 0
	}
	return float64((s[0] - '0') % 10)
}

// factLines encodes facts as fused.jsonl holds them.
func factLines(t *testing.T, facts []fusion.Fact) []byte {
	t.Helper()
	var b []byte
	for i := range facts {
		var err error
		if b, err = jsonl.AppendFact(b, &facts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}
