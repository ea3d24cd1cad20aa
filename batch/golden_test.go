package batch

import (
	"bytes"
	"context"
	"errors"
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

// goldenJob is the job whose fused output fusedGolden holds.
var goldenJob = Job{
	ShardPages: 4,
	Workers:    2,
	Fuse:       true,
	Fusion:     ceres.FusionOptions{Functional: map[string]bool{"releaseYear": true}},
}

// fusedBytes is a report's fused output as ceres-batch writes it.
func fusedBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var b []byte
	for i := range rep.Facts {
		var err error
		if b, err = jsonl.AppendFact(b, &rep.Facts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// TestFusedGolden pins the bytes of a harvest's fused output. The crawl
// fixture, with releaseYear functional, goes through JSONLSink and the
// Runner twice: a cold pass that trains and publishes every site, then a
// warm one over those models after the checkpoint and the shard files are
// discarded (what ceres-batch -reset does). Both passes must give the
// golden's lines byte for byte, at one core and at four — so neither the
// replay's loader count nor the fuser's internals may show in the output.
// go test -run TestFusedGolden ./batch -update rewrites the golden.
func TestFusedGolden(t *testing.T) {
	job := goldenJob
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
				got := fusedBytes(t, rep)
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

// TestWarmHarvestDropsFinishedSites: a warm pass over the crawl fixture
// keeps only the caches of the site a shard serves — the dispatcher hands
// a worker its shards site by site, so each pooled scratch drops the
// caches of the sites before — and the drops are counted as evictions
// while the fused bytes stay the golden's. Without the drops the fixture's
// caches fit the scratch's bound, and nothing is evicted.
func TestWarmHarvestDropsFinishedSites(t *testing.T) {
	base := t.TempDir()
	f := newCrawlFixture(t, base, fixtureSites)
	dirs := newHarvestDirs(t, base, "run")
	if _, err := runHarvest(t, f, dirs, goldenJob, 0); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{dirs.checkpoint, dirs.triples} {
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := runHarvest(t, f, dirs, goldenJob, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Contexts; c.Fields == 0 || c.Evictions == 0 {
		t.Fatalf("warm pass contexts %+v: want fields scored and finished sites' caches evicted", c)
	}
	want, err := os.ReadFile(fusedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := fusedBytes(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("warm pass: fused output differs from %s:\n%s", fusedGolden, firstLineDiff(got, want))
	}
}

// cancelReplaySink cancels the run's context from inside fusion's
// replay, once a fixed number of triples has been replayed.
type cancelReplaySink struct {
	TripleSink
	cancel context.CancelFunc
	after  int
}

func (s cancelReplaySink) Replay(ctx context.Context, shards []Shard, fn func(site string, t ceres.Triple) error) error {
	n := 0
	return s.TripleSink.(Replayer).Replay(ctx, shards, func(site string, t ceres.Triple) error {
		if n++; n == s.after {
			s.cancel()
		}
		return fn(site, t)
	})
}

// TestFuseHonoursCancellation cancels a run from inside its fusion stage,
// partway through the replay: Run returns context.Canceled with every
// goroutine it started — replay loaders included — exited, and the next
// Run of the job executes no shard (the checkpoint already holds them
// all) and fuses the golden's bytes. At GOMAXPROCS 1 and 4.
func TestFuseHonoursCancellation(t *testing.T) {
	const after = 100
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := t.TempDir()
			f := newCrawlFixture(t, base, fixtureSites)
			dirs := newHarvestDirs(t, base, "run")
			store, err := ceres.NewDirStore(dirs.models)
			if err != nil {
				t.Fatal(err)
			}
			sink, err := NewJSONLSink(dirs.triples)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r, err := NewRunner(Config{
				Provider:       f.store,
				Sink:           cancelReplaySink{TripleSink: sink, cancel: cancel, after: after},
				Registry:       ceres.NewRegistry(),
				Store:          store,
				Pipeline:       f.pipeline,
				CheckpointPath: dirs.checkpoint,
			})
			if err != nil {
				t.Fatal(err)
			}
			goroutines := runtime.NumGoroutine()
			if rep, err := r.Run(ctx, goldenJob); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled during fusion: Run returned %v (report %v)", err, rep != nil)
			}
			waitGoroutines(t, goroutines)

			rep, err := runHarvest(t, f, dirs, goldenJob, 0)
			if err != nil {
				t.Fatal(err)
			}
			triples := 0
			for _, sr := range rep.Sites {
				triples += sr.Triples
			}
			if rep.Shards != 0 || rep.Resumed == 0 || triples <= after {
				t.Fatalf("next run executed %d shards, resumed %d, fused %d triples", rep.Shards, rep.Resumed, triples)
			}
			want, err := os.ReadFile(fusedGolden)
			if err != nil {
				t.Fatal(err)
			}
			if got := fusedBytes(t, rep); !bytes.Equal(got, want) {
				t.Fatalf("fused output after a cancelled fusion differs from %s:\n%s", fusedGolden, firstLineDiff(got, want))
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
