package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// absoluteBounds are the end-to-end metrics whose regression bound is an
// absolute drop, not a share of A's median: extraction quality is the
// same on every run of a seed, so any drop is a real one, and ISSUE 11
// allows 0.005. (BENCHMARK.json can only hold relative bounds, and its
// bounds for these two are wide because its acceptance check compares
// runs on different seeds.)
var absoluteBounds = map[string]float64{"precision": 0.005, "recall": 0.005}

// boundOf returns the bound -compare holds a metric to and whether it is
// absolute.
func boundOf(m metricSpec) (bound float64, absolute bool) {
	if b, ok := absoluteBounds[m.Name]; ok {
		return b, true
	}
	return m.Bound, false
}

// verdict judges one end-to-end metric of one workload between two sets
// of runs on the same seed, A (the parent) and B (the change):
//
//   - regressed: B's median is worse than A's by more than the bound;
//   - unresolved: it is not, but the run-to-run spread of either side
//     (interquartile distance, as a share of the median unless the bound
//     is absolute) is wider than the bound, so "no regression" cannot be
//     told from noise — unless every run of B reads better than every
//     run of A;
//   - ok otherwise.
func verdict(m metricSpec, a, b []float64) (worse, spreadMax float64, v string) {
	bound, absolute := boundOf(m)
	ma, mb := median(a), median(b)
	worse = mb - ma
	spreadMax = max(iqr(a), iqr(b))
	if !absolute {
		if ma == 0 {
			worse = 0
		} else {
			worse /= ma
		}
		spreadMax = max(spread(a), spread(b))
	}
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > bound:
		v = "regressed"
	case spreadMax > bound && !allBetter(m, a, b):
		v = "unresolved"
	default:
		v = "ok"
	}
	return worse, spreadMax, v
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(m metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over a file's untraced
// runs, by seed.
func (f *resultFile) values(workload, metric string) map[int64][]float64 {
	out := make(map[int64][]float64)
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[metric]; ok {
				out[r.Seed] = append(out[r.Seed], m.Value)
			}
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric, seed both
// files ran) and returns an error if any row regressed. Runs are only
// ever compared with runs on the same seed: another seed is another
// world, with other pages and another precision and recall.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) error {
	fa, err := readResults(pathA)
	if err != nil {
		return err
	}
	fb, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-13s %-16s %-6s %4s %5s %14s %14s %9s %9s %9s  %s\n",
		"workload", "metric", "unit", "seed", "runs", "A median", "B median", "worse", "spread", "bound", "verdict")
	rows, regressed, unresolved := 0, 0, 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := fa.values(wl.Name, m.Name), fb.values(wl.Name, m.Name)
			var seeds []int64
			for seed := range a {
				if len(b[seed]) > 0 {
					seeds = append(seeds, seed)
				}
			}
			slices.Sort(seeds)
			for _, seed := range seeds {
				worse, sp, v := verdict(m, a[seed], b[seed])
				rows++
				switch v {
				case "regressed":
					regressed++
				case "unresolved":
					unresolved++
				}
				bound, absolute := boundOf(m)
				show := func(x float64) string {
					if absolute {
						return fmt.Sprintf("%+.4f", x)
					}
					return fmt.Sprintf("%+.1f%%", x*100)
				}
				fmt.Fprintf(w, "%-13s %-16s %-6s %4d %2d/%-2d %14.4f %14.4f %9s %9s %9s  %s\n",
					wl.Name, m.Name, m.Unit, seed, len(a[seed]), len(b[seed]), median(a[seed]), median(b[seed]),
					show(worse), show(sp)[1:], show(bound)[1:], v)
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("%s and %s share no (workload, seed)", pathA, pathB)
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}
