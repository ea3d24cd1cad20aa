// Package obs is the repo's stdlib-only metrics layer (DESIGN.md §12):
// counters, gauges and fixed-bucket histograms behind a Registry that
// exposes them in the Prometheus text format. It exists so the serving
// fleet can be observed without importing a metrics dependency.
//
// The hot paths — Counter.Add, Gauge.Add, Histogram.Observe, and the
// labeled-family lookups once a label has been seen — are lock-free
// atomic operations annotated //ceres:allocfree; a request that bumps a
// handful of counters pays a few atomic adds, never a mutex and never an
// allocation. Labeled families (CounterVec and friends) keep their
// label → metric table behind an atomic pointer to an immutable map, the
// same copy-on-write discipline as ceres.Registry: reads are a pointer
// load and a map index, and only the first observation of a new label
// value takes the writer mutex.
//
// Exposition (WritePrometheus) is the cold path: it walks the registered
// families sorted by name, label values sorted within a family, so the
// output is deterministic and diffable. Histograms emit cumulative
// buckets with the conventional le label, plus _sum and _count series.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default request-latency histogram bounds, in
// seconds: sub-millisecond serves through multi-second batch extracts.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n must be >= 0; negative deltas are
// ignored so a counter can never go backwards).
//
//ceres:allocfree
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
//
//ceres:allocfree
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
//
//ceres:allocfree
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrease).
//
//ceres:allocfree
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative at
// exposition time; internally each bucket counts only its own range so
// Observe touches exactly one bucket counter.
type Histogram struct {
	bounds []float64      // upper bounds, ascending, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is the overflow (+Inf) bucket
	sum    atomic.Uint64  // float64 bits, updated by CAS
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
//
//ceres:allocfree
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket lists are short (DefBuckets is 14 entries) and
	// the scan is branch-predictable; a binary search saves nothing here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns a copy of the histogram's upper bounds, ascending,
// excluding the implicit +Inf bucket.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts snapshots the per-bucket counts, non-cumulative, aligned
// with Bounds plus one trailing overflow (+Inf) entry — the raw shape
// drift-snapshot APIs serve without re-deriving it from exposition text.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// vec is the shared label → metric table of the labeled families:
// copy-on-write map behind an atomic pointer, so the steady-state lookup
// is a pointer load plus a map index.
type vec[T any] struct {
	mu   sync.Mutex
	m    atomic.Pointer[map[string]*T]
	mk   func() *T
	gate func(string) bool // nil: any label value accepted
}

func newVec[T any](mk func() *T) *vec[T] {
	v := &vec[T]{mk: mk}
	empty := map[string]*T{}
	v.m.Store(&empty)
	return v
}

// with returns the metric for a label value, creating it on first use.
//
//ceres:allocfree
func (v *vec[T]) with(label string) *T {
	if m, ok := (*v.m.Load())[label]; ok {
		return m
	}
	return v.create(label)
}

func (v *vec[T]) create(label string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	cur := *v.m.Load()
	if m, ok := cur[label]; ok {
		return m
	}
	m := v.mk()
	next := make(map[string]*T, len(cur)+1)
	for k, mv := range cur {
		next[k] = mv
	}
	next[label] = m
	v.m.Store(&next)
	return m
}

// labels returns the seen label values, sorted.
func (v *vec[T]) labels() []string {
	cur := *v.m.Load()
	out := make([]string, 0, len(cur))
	for k := range cur {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CounterVec is a family of counters keyed by one label.
type CounterVec struct {
	v *vec[Counter]
}

// With returns the counter for a label value, creating it on first use.
// The returned pointer is stable: hot paths should capture it once per
// request, not per increment.
//
//ceres:allocfree
func (cv *CounterVec) With(label string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.with(label)
}

// HistogramVec is a family of histograms keyed by one label, sharing one
// set of bucket bounds.
type HistogramVec struct {
	v *vec[Histogram]
}

// With returns the histogram for a label value, creating it on first
// use.
//
//ceres:allocfree
func (hv *HistogramVec) With(label string) *Histogram {
	if hv == nil {
		return nil
	}
	return hv.v.with(label)
}

// family is one registered metric name: its metadata plus exactly one
// backing implementation.
type family struct {
	name, help string
	typ        string // "counter" | "gauge" | "histogram"
	label      string // label name for the *Vec and *VecFunc kinds; "" = unlabeled
	bounds     []float64

	counter *Counter
	gauge   *Gauge
	cvec    *CounterVec
	hvec    *HistogramVec
	fn      func() float64                           // CounterFunc / GaugeFunc
	collect func(emit func(label string, v float64)) // GaugeVecFunc
}

// kind is the registration signature a name is held to: re-registering
// the same name with the same kind returns the existing family (so two
// instrumented components can share a Registry), a different kind panics.
func (f *family) kind() string { return f.typ + "/" + f.label + "/" + implOf(f) }

func implOf(f *family) string {
	switch {
	case f.counter != nil:
		return "counter"
	case f.gauge != nil:
		return "gauge"
	case f.cvec != nil:
		return "countervec"
	case f.hvec != nil:
		return "histogramvec"
	case f.fn != nil:
		return "func"
	case f.collect != nil:
		return "collectfunc"
	}
	return "none"
}

// Registry holds a process's metric families and renders them in the
// Prometheus text exposition format. The zero value is not usable; call
// NewRegistry. Registration is idempotent per (name, kind): asking for
// an already-registered family returns the existing one, so independent
// components can instrument themselves against a shared registry without
// coordinating.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register installs f under its name, or returns the existing family
// when one of the same kind is already registered. A name collision
// across kinds is a programming error and panics.
func (r *Registry) register(f *family) *family {
	if err := checkName(f.name); err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.fams[f.name]; ok {
		if old.kind() != f.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind (%s vs %s)", f.name, f.kind(), old.kind()))
		}
		return old
	}
	r.fams[f.name] = f
	return f
}

// checkName enforces the Prometheus metric-name charset.
func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return fmt.Errorf("obs: metric name %q starts with a digit", name)
			}
		default:
			return fmt.Errorf("obs: metric name %q has invalid character %q", name, c)
		}
	}
	return nil
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: "counter", counter: &Counter{}})
	return f.counter
}

// CounterVec registers (or returns) a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	f := r.register(&family{name: name, help: help, typ: "counter", label: label,
		cvec: &CounterVec{v: newVec(func() *Counter { return &Counter{} })}})
	return f.cvec
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(&family{name: name, help: help, typ: "gauge", gauge: &Gauge{}})
	return f.gauge
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for components that already keep their own
// monotonic count (e.g. a registry's swap counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", fn: fn})
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", fn: fn})
}

// GaugeVecFunc registers a labeled gauge family collected at exposition
// time: collect is called with an emit callback and reports one sample
// per label value (emission order need not be sorted; exposition sorts).
func (r *Registry) GaugeVecFunc(name, help, label string, collect func(emit func(label string, v float64))) {
	r.register(&family{name: name, help: help, typ: "gauge", label: label, collect: collect})
}

// HistogramVec registers (or returns) a histogram family keyed by one
// label, all members sharing the bucket bounds.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	f := r.register(&family{name: name, help: help, typ: "histogram", label: label, bounds: b,
		hvec: &HistogramVec{v: newVec(func() *Histogram { return newHistogram(b) })}})
	return f.hvec
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and label
// values sorted within a family, so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(r.fams))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		f.expose(&b)
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// expose renders one family: HELP, TYPE, then its samples.
func (f *family) expose(b *strings.Builder) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteByte('\n')
	b.WriteString("# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.typ)
	b.WriteByte('\n')
	switch {
	case f.counter != nil:
		sampleInt(b, f.name, "", "", f.counter.Value())
	case f.gauge != nil:
		sampleInt(b, f.name, "", "", f.gauge.Value())
	case f.fn != nil:
		sampleFloat(b, f.name, "", "", f.fn())
	case f.cvec != nil:
		for _, lv := range f.cvec.v.labels() {
			sampleInt(b, f.name, f.label, lv, f.cvec.With(lv).Value())
		}
	case f.hvec != nil:
		for _, lv := range f.hvec.v.labels() {
			exposeHistogram(b, f.name, f.label, lv, f.bounds, f.hvec.With(lv))
		}
	case f.collect != nil:
		type sample struct {
			label string
			v     float64
		}
		var got []sample
		f.collect(func(label string, v float64) { got = append(got, sample{label, v}) })
		sort.Slice(got, func(i, j int) bool { return got[i].label < got[j].label })
		for _, s := range got {
			sampleFloat(b, f.name, f.label, s.label, s.v)
		}
	}
}

// exposeHistogram writes the cumulative _bucket series plus _sum and
// _count for one member of a histogram family.
func exposeHistogram(b *strings.Builder, name, label, lv string, bounds []float64, h *Histogram) {
	cum := int64(0)
	for i, bound := range bounds {
		cum += h.counts[i].Load()
		bucketSample(b, name, label, lv, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.counts[len(bounds)].Load()
	bucketSample(b, name, label, lv, "+Inf", cum)
	sampleFloat(b, name+"_sum", label, lv, h.Sum())
	sampleInt(b, name+"_count", label, lv, h.Count())
}

func bucketSample(b *strings.Builder, name, label, lv, le string, v int64) {
	b.WriteString(name)
	b.WriteString("_bucket{")
	writeLabelPair(b, label, lv)
	b.WriteByte(',')
	writeLabelPair(b, "le", le)
	b.WriteString("} ")
	b.WriteString(strconv.FormatInt(v, 10))
	b.WriteByte('\n')
}

func sampleInt(b *strings.Builder, name, label, lv string, v int64) {
	writeSeries(b, name, label, lv)
	b.WriteString(strconv.FormatInt(v, 10))
	b.WriteByte('\n')
}

func sampleFloat(b *strings.Builder, name, label, lv string, v float64) {
	writeSeries(b, name, label, lv)
	b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	b.WriteByte('\n')
}

func writeSeries(b *strings.Builder, name, label, lv string) {
	b.WriteString(name)
	if label != "" {
		b.WriteByte('{')
		writeLabelPair(b, label, lv)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
}

func writeLabelPair(b *strings.Builder, label, value string) {
	b.WriteString(label)
	b.WriteString(`="`)
	b.WriteString(escapeLabel(value))
	b.WriteByte('"')
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a help string: backslash and newline.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
