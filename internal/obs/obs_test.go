package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ceres/internal/obs/obstest"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
	// nil receivers are silent no-ops, so unwired instrumentation costs
	// nothing and crashes nothing.
	var nc *Counter
	nc.Inc()
	var ng *Gauge
	ng.Add(1)
	var nh *Histogram
	nh.Observe(1)
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if want := 0.05 + 0.1 + 0.5 + 2 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	// Bucket counts are per-range internally: le=0.1 gets 0.05 and the
	// boundary value 0.1; le=1 gets 0.5; le=10 gets 2; +Inf gets 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("req_total", "requests", "site")
	cv.With("b.example").Inc()
	cv.With("a.example").Add(2)
	cv.With("b.example").Inc()
	if got := cv.With("b.example").Value(); got != 2 {
		t.Errorf("b.example = %d, want 2", got)
	}
	if got := cv.v.labels(); len(got) != 2 || got[0] != "a.example" || got[1] != "b.example" {
		t.Errorf("labels = %v, want sorted [a.example b.example]", got)
	}
	// The returned pointer is stable across With calls.
	if cv.With("a.example") != cv.With("a.example") {
		t.Error("With returned different pointers for one label")
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second registration returns the first")
	if a != b {
		t.Error("re-registering the same counter returned a new one")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dup_total", "wrong kind")
}

func TestBadMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "0starts_with_digit", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			r.Counter(name, "bad")
		}()
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "c")
	h := r.HistogramVec("conc_seconds", "h", "site", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := "site-" + strconv.Itoa(w%2)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.With(site).Observe(float64(i % 2))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	total := h.With("site-0").Count() + h.With("site-1").Count()
	if total != 8000 {
		t.Errorf("histogram count = %d, want 8000", total)
	}
	if want := 4000.0; h.With("site-0").Sum()+h.With("site-1").Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.With("site-0").Sum()+h.With("site-1").Sum(), want)
	}
}

// ParsePrometheus wraps the shared strict parser (internal/obs/obstest)
// for in-package assertions.
func ParsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples, err := obstest.Parse(text)
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, text)
	}
	return samples
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last by name").Add(7)
	cv := r.CounterVec("aa_req_total", "first by name", "site")
	cv.With(`we"ird\site` + "\n").Add(3)
	cv.With("plain").Add(1)
	r.GaugeFunc("mid_gauge", "from func", func() float64 { return 2.5 })
	r.GaugeVecFunc("mid_versions", "versions", "site", func(emit func(string, float64)) {
		emit("b", 2)
		emit("a", 1)
	})
	h := r.HistogramVec("lat_seconds", "latency", "site", []float64{0.1, 1}).With("a")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	samples := ParsePrometheus(t, text)

	// Families render sorted by name.
	if aa, zz := strings.Index(text, "aa_req_total"), strings.Index(text, "zz_total"); aa < 0 || zz < 0 || aa > zz {
		t.Errorf("families not sorted by name:\n%s", text)
	}
	for series, want := range map[string]float64{
		"zz_total":                               7,
		`aa_req_total{site="plain"}`:             1,
		"mid_gauge":                              2.5,
		`mid_versions{site="a"}`:                 1,
		`mid_versions{site="b"}`:                 2,
		`lat_seconds_bucket{site="a",le="0.1"}`:  1,
		`lat_seconds_bucket{site="a",le="1"}`:    2,
		`lat_seconds_bucket{site="a",le="+Inf"}`: 3,
		`lat_seconds_count{site="a"}`:            3,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	if got := samples[`lat_seconds_sum{site="a"}`]; math.Abs(got-5.55) > 1e-9 {
		t.Errorf("lat_seconds_sum = %v, want 5.55", got)
	}
	// The escaped label value renders escaped.
	if _, ok := samples[`aa_req_total{site="we\"ird\\site\n"}`]; !ok {
		t.Errorf("escaped label series missing from:\n%s", text)
	}
	// Histogram buckets are cumulative and monotonic.
	if samples[`lat_seconds_bucket{site="a",le="0.1"}`] > samples[`lat_seconds_bucket{site="a",le="1"}`] ||
		samples[`lat_seconds_bucket{site="a",le="1"}`] > samples[`lat_seconds_bucket{site="a",le="+Inf"}`] {
		t.Error("histogram buckets are not cumulative")
	}
	// +Inf bucket equals _count.
	if samples[`lat_seconds_bucket{site="a",le="+Inf"}`] != samples[`lat_seconds_count{site="a"}`] {
		t.Error("+Inf bucket != count")
	}
}

func TestHistogramVecSharedBounds(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("hv_seconds", "h", "site", []float64{1, 0.1}) // unsorted on purpose
	hv.With("a").Observe(0.05)
	hv.With("b").Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := ParsePrometheus(t, sb.String())
	if samples[`hv_seconds_bucket{site="a",le="0.1"}`] != 1 {
		t.Errorf("site a le=0.1 bucket missing or wrong:\n%s", sb.String())
	}
	if samples[`hv_seconds_bucket{site="b",le="1"}`] != 1 {
		t.Errorf("site b le=1 bucket missing or wrong:\n%s", sb.String())
	}
}
