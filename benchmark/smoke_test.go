package main

import (
	"context"
	"regexp"
	"testing"
	"time"
)

// tinySizes shrink every input so that all four workloads, untraced and
// traced, run in a few seconds; the numbers mean nothing at this size.
var tinySizes = sizes{
	serveTrain: 30, serveUnseen: 12,
	crawlScale: 0.01, crawlMaxSite: 40, crawlSites: []string{"themoviedb.org", "danksefilm.com", "bmxmdb.com"},
	minPasses: 2, probePages: 5,
	windowGap: 2 * time.Millisecond, stepGap: 5 * time.Millisecond,
}

// TestSmokeAllWorkloads runs every workload of BENCHMARK.json at tiny
// scale, with tracing off and on, and checks the contract: the run is
// correct, and it emits exactly the metrics BENCHMARK.json lists for
// that mode, each once, each under a well-formed name.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(root, spec, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, list := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q is listed twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if len(spec.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want 4", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			t0 := time.Now()
			res, spans, err := b.run(context.Background(), w.Name, 7, 0.3, traced)
			t.Logf("%s traced=%v: %.1fs", w.Name, traced, time.Since(t0).Seconds())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
				if len(spans) == 0 {
					t.Errorf("%s: traced run recorded no spans", w.Name)
				}
				if _, ok := res.Metrics["trace.overhead_pct"]; !ok {
					t.Errorf("%s: trace.overhead_pct missing", w.Name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if line, err := res.line(); err != nil || len(line) == 0 {
				t.Errorf("%s: result line: %v", w.Name, err)
			}
		}
	}
}
