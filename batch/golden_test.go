package batch

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"ceres"
	"ceres/internal/jsonl"
)

var update = flag.Bool("update", false, "rewrite the committed golden files from this run")

// fusedGolden is the fused output of the crawl fixture, one
// jsonl.AppendFact line per fact: what ceres-batch writes as fused.jsonl.
const fusedGolden = "testdata/fused-fixture.jsonl"

// TestFusedGolden pins the bytes of a harvest's fused output. The crawl
// fixture, with releaseYear functional, goes through JSONLSink and the
// Runner twice: a cold pass that trains and publishes every site, then a
// warm one over those models after the checkpoint and the shard files are
// discarded (what ceres-batch -reset does). Both passes must give the
// golden's lines byte for byte, at one core and at four — so neither the
// replay's loader count nor the fuser's internals may show in the output.
// go test -run TestFusedGolden ./batch -update rewrites the golden.
func TestFusedGolden(t *testing.T) {
	job := Job{
		ShardPages: 4,
		Workers:    2,
		Fuse:       true,
		Fusion:     ceres.FusionOptions{Functional: map[string]bool{"releaseYear": true}},
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := t.TempDir()
			f := newCrawlFixture(t, base, fixtureSites)
			dirs := newHarvestDirs(t, base, "run")
			for _, pass := range []string{"cold", "warm"} {
				if pass == "warm" {
					if err := os.Remove(dirs.checkpoint); err != nil {
						t.Fatal(err)
					}
					if err := os.RemoveAll(dirs.triples); err != nil {
						t.Fatal(err)
					}
				}
				rep, err := runHarvest(t, f, dirs, job, 0)
				if err != nil {
					t.Fatal(err)
				}
				trained := 0
				for _, sr := range rep.Sites {
					if sr.Trained {
						trained++
					}
				}
				if (pass == "cold") != (trained > 0) || len(rep.Facts) == 0 {
					t.Fatalf("%s pass trained %d sites and fused %d facts", pass, trained, len(rep.Facts))
				}
				var got []byte
				for i := range rep.Facts {
					if got, err = jsonl.AppendFact(got, &rep.Facts[i]); err != nil {
						t.Fatal(err)
					}
				}
				if *update && procs == 1 && pass == "cold" {
					if err := os.WriteFile(fusedGolden, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(fusedGolden)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s pass: fused output differs from %s:\n%s", pass, fusedGolden, firstLineDiff(got, want))
				}
			}
		})
	}
}

// firstLineDiff describes the first line where got and want differ.
func firstLineDiff(got, want []byte) string {
	g, w := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d:\n got %q\nwant %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}
