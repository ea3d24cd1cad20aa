// Package trace is the repo's stdlib-only span tracer (DESIGN.md §13):
// context-propagated span trees with monotonic timings, 1-in-N request
// sampling, a fixed-capacity ring of completed traces, and JSONL export
// for the daemon's /debug/traces endpoint.
//
// The design constraint is the serve hot path: a Service with tracing
// configured but a request sampled out must behave exactly like an
// untraced Service — same instruction path shape, zero allocations.
// That is achieved with the nil-receiver idiom: StartRoot returns nil
// for a sampled-out (or absent) tracer, every Span method is nil-safe,
// and ContextWith(ctx, nil) returns ctx unchanged. The fast paths carry
// //ceres:allocfree and are enforced by ceresvet; allocation happens
// only inside the unannotated slow-path constructors that run when a
// request actually is sampled.
//
// Span end is exactly-once: End uses a CAS so a span that races a
// cancellation path with a defer cannot be double-counted, and the
// tracer keeps started/ended/double-end counters (Stats) that tests and
// the ceres_trace_* metric families assert on.
package trace

import (
	"context"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ceres/internal/obs"
)

// Options configures a Tracer.
type Options struct {
	// SampleEvery samples one root span out of every N StartRoot calls.
	// 1 traces every request; 0 (the default) disables sampling entirely:
	// StartRoot always returns nil and tracing costs one atomic add.
	SampleEvery int
	// Capacity bounds the ring of retained completed traces. Completing
	// a root beyond capacity evicts the oldest. Default 64.
	Capacity int
}

// DefaultCapacity is the retained-trace ring size when Options.Capacity
// is zero.
const DefaultCapacity = 64

// Tracer samples request roots and retains completed span trees.
// A nil *Tracer is valid and traces nothing.
type Tracer struct {
	every int64
	seq   atomic.Int64

	started    atomic.Int64 // spans created (sampled requests only)
	ended      atomic.Int64 // spans ended exactly once
	doubleEnds atomic.Int64 // End calls beyond a span's first (a bug if nonzero)
	sampled    atomic.Int64 // roots sampled in
	evicted    atomic.Int64 // completed roots dropped by ring overwrite

	mu   sync.Mutex
	ring []*Span
	next int
	full bool
}

// New builds a Tracer. With o.SampleEvery <= 0 the tracer is valid but
// samples nothing (useful for measuring the tracing tax with sampling
// off).
func New(o Options) *Tracer {
	n := o.Capacity
	if n <= 0 {
		n = DefaultCapacity
	}
	return &Tracer{every: int64(o.SampleEvery), ring: make([]*Span, n)}
}

// StartRoot begins a new trace if this request wins the 1-in-N sampling
// draw, and returns nil otherwise. The sampled-out path is one atomic
// add and no allocation.
//
//ceres:allocfree
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil || t.every <= 0 {
		return nil
	}
	if (t.seq.Add(1)-1)%t.every != 0 {
		return nil
	}
	return t.newRoot(name)
}

// newRoot is the sampled-in slow path; it allocates.
func (t *Tracer) newRoot(name string) *Span {
	t.sampled.Add(1)
	t.started.Add(1)
	return &Span{tracer: t, name: name, start: time.Now()}
}

// newChild allocates a child span and links it under parent.
func (t *Tracer) newChild(parent *Span, name string) *Span {
	t.started.Add(1)
	s := &Span{tracer: t, parent: parent, name: name, start: time.Now()}
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return s
}

// retain files a completed root into the ring, evicting the oldest
// trace when full.
func (t *Tracer) retain(root *Span) {
	t.mu.Lock()
	if t.ring[t.next] != nil {
		t.evicted.Add(1)
	}
	t.ring[t.next] = root
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Roots returns the retained completed traces, oldest first.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

// Stats is a snapshot of the tracer's lifetime counters.
type Stats struct {
	// Started and Ended count span lifecycle events on sampled requests;
	// in a quiescent correct program they are equal.
	Started, Ended int64
	// DoubleEnds counts End calls past a span's first — always zero
	// unless a code path ends the same span twice.
	DoubleEnds int64
	// Sampled counts roots that won the sampling draw.
	Sampled int64
	// Evicted counts completed traces dropped by ring overwrite.
	Evicted int64
}

// Stats returns the tracer's lifetime counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:    t.started.Load(),
		Ended:      t.ended.Load(),
		DoubleEnds: t.doubleEnds.Load(),
		Sampled:    t.sampled.Load(),
		Evicted:    t.evicted.Load(),
	}
}

// Instrument registers the tracer's meta-metrics on m so a fleet can
// watch sampling volume and retention pressure per replica.
func (t *Tracer) Instrument(m *obs.Registry) {
	if t == nil || m == nil {
		return
	}
	m.CounterFunc("ceres_trace_spans_total",
		"Spans started on sampled requests.",
		func() float64 { return float64(t.started.Load()) })
	m.CounterFunc("ceres_trace_roots_sampled_total",
		"Root spans that won the 1-in-N sampling draw.",
		func() float64 { return float64(t.sampled.Load()) })
	m.CounterFunc("ceres_trace_roots_evicted_total",
		"Completed traces evicted from the retention ring.",
		func() float64 { return float64(t.evicted.Load()) })
}

// attr is one typed span attribute. Keeping attributes as a typed slice
// (not map[string]any) keeps Set* free of boxing and the JSONL export
// deterministic in insertion order.
type attr struct {
	key   string
	str   string
	num   int64
	isNum bool
}

// Span is one timed node in a trace tree. The zero value is not used;
// spans are created by StartRoot/StartChild and a nil *Span is the
// universal "not traced" value: every method is nil-safe and free.
type Span struct {
	tracer *Tracer
	parent *Span
	name   string
	start  time.Time // carries the monotonic clock

	ended atomic.Bool

	mu       sync.Mutex
	dur      time.Duration
	errMsg   string
	attrs    []attr
	children []*Span
}

// StartChild begins a child span. On a nil receiver it returns nil, so
// call sites never branch on "is this request traced".
//
//ceres:allocfree
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.newChild(s, name)
}

// SetStr attaches a string attribute.
//
//ceres:allocfree
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, str: value})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
//
//ceres:allocfree
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, num: value, isNum: true})
	s.mu.Unlock()
}

// SetErr records err on the span (for paths that end the span through a
// later defer). A nil error is a no-op.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// End completes the span, capturing its monotonic duration. Only the
// first End wins; later calls are counted in Stats.DoubleEnds and
// otherwise ignored, so a cancellation path racing a defer cannot
// corrupt the trace.
//
//ceres:allocfree
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endWith(time.Since(s.start))
}

// EndErr records err (when non-nil) and ends the span.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.SetErr(err)
	s.End()
}

func (s *Span) endWith(d time.Duration) {
	if !s.ended.CompareAndSwap(false, true) {
		s.tracer.doubleEnds.Add(1)
		return
	}
	s.mu.Lock()
	s.dur = d
	s.mu.Unlock()
	s.tracer.ended.Add(1)
	if s.parent == nil {
		s.tracer.retain(s)
	}
}

// AddTimed attaches an already-measured child span — the vehicle for
// aggregate per-stage timings (e.g. parse/route/score summed across a
// request's worker pool). The child shares the parent's start time, and
// because the duration is summed across workers it may legitimately
// exceed the parent's wall time. The child is returned, ended, for the
// caller to attach attributes to; nil when nothing was attached.
func (s *Span) AddTimed(name string, d time.Duration) *Span {
	if s == nil || d < 0 {
		return nil
	}
	c := s.tracer.newChild(s, name)
	c.start = s.start
	c.endWith(d)
	return c
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns the recorded duration (zero until End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// Err returns the recorded error message, "" when none.
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg
}

// Ended reports whether the span has been ended.
func (s *Span) Ended() bool {
	return s != nil && s.ended.Load()
}

// Children returns a snapshot of the span's children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Span, len(s.children))
	copy(out, s.children)
	return out
}

// Child returns the first child with the given name, or nil.
func (s *Span) Child(name string) *Span {
	for _, c := range s.Children() {
		if c.name == name {
			return c
		}
	}
	return nil
}

// ctxKey is the context key for the active span.
type ctxKey struct{}

// ContextWith returns ctx carrying s as the active span. When s is nil
// (request not sampled) it returns ctx unchanged, allocating nothing.
func ContextWith(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the active span in ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan starts a child of ctx's active span and returns a context
// carrying it. Without an active span it returns (ctx, nil) untouched —
// the untraced fast path stays allocation-free.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.StartChild(name)
	return ContextWith(ctx, s), s
}

// AttrJSON is one exported span attribute.
type AttrJSON struct {
	Key string `json:"key"`
	Str string `json:"str,omitempty"`
	Num int64  `json:"num,omitempty"`
}

// SpanJSON is the export shape of a span tree node.
type SpanJSON struct {
	Name     string     `json:"name"`
	Start    time.Time  `json:"start"`
	DurNs    int64      `json:"durNs"`
	Err      string     `json:"err,omitempty"`
	Attrs    []AttrJSON `json:"attrs,omitempty"`
	Children []SpanJSON `json:"children,omitempty"`
}

// JSON snapshots the span tree rooted at s. A still-open span reports
// its duration so far.
func (s *Span) JSON() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	out := SpanJSON{Name: s.name, Start: s.start, DurNs: int64(s.dur), Err: s.errMsg}
	if !s.ended.Load() {
		out.DurNs = int64(time.Since(s.start))
	}
	for _, a := range s.attrs {
		aj := AttrJSON{Key: a.key}
		if a.isNum {
			aj.Num = a.num
		} else {
			aj.Str = a.str
		}
		out.Attrs = append(out.Attrs, aj)
	}
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	for _, c := range kids {
		out.Children = append(out.Children, c.JSON())
	}
	return out
}

// WriteJSONL writes the retained completed traces as one JSON object
// per line, oldest first. The encoding is hand-rolled (no reflection)
// and emits attributes in insertion order, so output is deterministic.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	buf := make([]byte, 0, 4096)
	for _, root := range t.Roots() {
		buf = appendSpanJSON(buf[:0], root.JSON())
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func appendSpanJSON(b []byte, s SpanJSON) []byte {
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, s.Name)
	b = append(b, `,"start":"`...)
	b = s.Start.UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","durNs":`...)
	b = strconv.AppendInt(b, s.DurNs, 10)
	if s.Err != "" {
		b = append(b, `,"err":`...)
		b = strconv.AppendQuote(b, s.Err)
	}
	if len(s.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, a := range s.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"key":`...)
			b = strconv.AppendQuote(b, a.Key)
			if a.Str != "" {
				b = append(b, `,"str":`...)
				b = strconv.AppendQuote(b, a.Str)
			} else {
				b = append(b, `,"num":`...)
				b = strconv.AppendInt(b, a.Num, 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(s.Children) > 0 {
		b = append(b, `,"children":[`...)
		for i, c := range s.Children {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSpanJSON(b, c)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}
