package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec mirrors BENCHMARK.json, the one place metric names, units
// and regression bounds are fixed. The program reads it at start: a run
// must emit exactly the metrics it lists, and -compare takes its bounds
// from it.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json and go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no directory above %s holds BENCHMARK.json and go.mod", dir)
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one measured metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload with tracing off (the end-to-end
// metrics) or on (the per-layer metrics). Its JSON form with only the
// first four fields is the line the run prints last.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string   `json:"workload,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Traced   bool     `json:"traced,omitempty"`
	Seconds  float64  `json:"seconds,omitempty"`
	Samples  int      `json:"samples,omitempty"` // latency samples behind the percentiles
	Speed    float64  `json:"speed,omitempty"`   // mean machine speed the times were scaled by (untraced runs)
	Problems []string `json:"problems,omitempty"`
}

// line is the contract's result line: exactly correct, attempted,
// failed and metrics.
func (r *runResult) line() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// fill builds the metric map a run reports: every metric of want, with
// the spec's unit. A metric the workload does not exercise (a daemon
// counter on a harvest) reads 0; a measured metric missing from got, or
// one in got the spec does not list, is a bug in the benchmark.
func fill(want []metricSpec, got map[string]float64, notApplicable func(name string) bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(want))
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok && (notApplicable == nil || !notApplicable(m.Name)) {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	GoVersion string      `json:"go"`
	NumCPU    int         `json:"nproc"`
	Runs      []runResult `json:"runs"`
}
