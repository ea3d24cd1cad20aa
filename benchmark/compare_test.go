package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "pages_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	recall := metricSpec{Name: "recall", Unit: "share", Better: "higher", Bound: 0.25}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{80, 120, 95, 130, 70}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower by 20%", lower, steady, []float64{120, 121, 119, 120, 122}, "regressed"},
		{"faster by 20%", lower, steady, []float64{80, 81, 79, 80, 82}, "ok"},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79, 80, 82}, "regressed"},
		{"throughput up 20%", higher, steady, []float64{120, 121, 119, 120, 122}, "ok"},
		{"within bound but too noisy to tell", lower, noisy, []float64{85, 125, 90, 128, 75}, "unresolved"},
		{"noisy, but every run better", lower, noisy, []float64{40, 60, 50, 65, 45}, "ok"},
		{"worse by 5%, inside the bound", lower, steady, []float64{105, 106, 104, 105, 107}, "ok"},
		{"recall down 0.004 absolute", recall, []float64{0.73, 0.73}, []float64{0.726, 0.726}, "ok"},
		{"recall down 0.01: absolute bound, not BENCHMARK.json's", recall, []float64{0.73, 0.73}, []float64{0.72, 0.72}, "regressed"},
		{"recall up", recall, []float64{0.73}, []float64{0.80}, "ok"},
	} {
		_, _, got := verdict(c.m, c.a, c.b)
		if got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesRows(t *testing.T) {
	spec := &benchSpec{
		EndToEnd: []metricSpec{
			{Name: "pages_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		},
	}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "serve-small"})
	write := func(name string, pages []float64) string {
		var f resultFile
		for _, p := range pages {
			f.Runs = append(f.Runs, runResult{Workload: "serve-small", Seed: 1, Metrics: map[string]metricValue{
				"pages_per_s": {p, "1/s"}, "setup_s": {2, "s"},
			}})
		}
		// A traced run must not be mixed into the end-to-end values.
		f.Runs = append(f.Runs, runResult{Workload: "serve-small", Seed: 1, Traced: true, Metrics: map[string]metricValue{"pages_per_s": {1, "1/s"}}})
		raw, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", []float64{1000, 1010, 990})
	b := write("b.json", []float64{700, 710, 690})

	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, a); err != nil {
		t.Errorf("A against itself: %v", err)
	}
	if strings.Count(out.String(), "\n") != 4 || !strings.Contains(out.String(), "0 regressed, 0 unresolved") {
		t.Errorf("want a header, one row per metric and a summary:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, spec, a, b); err == nil {
		t.Errorf("a 30%% throughput drop did not fail the comparison:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "1 regressed") {
		t.Errorf("no regressed row:\n%s", out.String())
	}
	// Runs on another seed are another world: nothing to compare.
	other := write("other.json", []float64{700})
	raw, _ := os.ReadFile(other)
	os.WriteFile(other, bytes.ReplaceAll(raw, []byte(`"seed":1`), []byte(`"seed":2`)), 0o644)
	if err := compareFiles(&out, spec, a, other); err == nil {
		t.Errorf("files without a common seed compared")
	}
}
