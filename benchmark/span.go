package main

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"ceres/internal/obs/trace"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (or rebuilt from a duration the program
// reported: a stage total in stats.json, a node of /debug/traces).
// Spans of one operation share Trace; Parent is the span that caused it.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Trace  int64   `json:"trace"`
	Name   string  `json:"name"`
	Start  int64   `json:"startNs"` // since the recorder was created
	Dur    int64   `json:"durNs"`
	N      float64 `json:"n,omitempty"` // units of work done (pages, triples, bytes: see the name's metric)
}

// spanLog keeps every span in memory until the run ends; writeJSONL
// then dumps them. It is safe for concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span under parent (nil: a new trace root). A nil log
// records nothing but still times the span, so callers measure the same
// way traced or not.
func (l *spanLog) open(parent *openSpan, name string) *openSpan {
	o := &openSpan{log: l, start: time.Now()}
	if l == nil {
		return o
	}
	l.mu.Lock()
	o.id = int64(len(l.spans) + 1)
	s := span{ID: o.id, Trace: o.id, Name: name, Start: int64(o.start.Sub(l.t0))}
	if parent != nil && parent.id != 0 {
		s.Parent, s.Trace = parent.id, parent.trace
	}
	o.trace = s.Trace
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return o
}

// timed records an already-measured span: a stage total the program
// reported rather than a call this process timed. Such spans carry no
// start of their own, so the timed children of one parent are laid end
// to end from the parent's start; totals summed over a worker pool may
// run past the parent's end and are clipped when self time is taken.
func (l *spanLog) timed(parent *openSpan, name string, d time.Duration, n float64) *openSpan {
	if l == nil {
		return &openSpan{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.add(parent, name, l.spans[parent.id-1].Start+parent.cursor, d, n)
}

// add appends a finished span; the caller holds l.mu.
func (l *spanLog) add(parent *openSpan, name string, start int64, d time.Duration, n float64) *openSpan {
	o := &openSpan{log: l, id: int64(len(l.spans) + 1)}
	s := span{ID: o.id, Trace: o.id, Name: name, Start: start, Dur: int64(d), N: n}
	if parent != nil && parent.id != 0 {
		s.Parent, s.Trace = parent.id, parent.trace
		parent.cursor = start + int64(d) - l.spans[parent.id-1].Start
	}
	o.trace = s.Trace
	l.spans = append(l.spans, s)
	return o
}

// adopt copies a span tree exported by the program's own tracer under
// parent (nil: as a trace of its own), keeping the start times and
// durations it reported. names maps the program's span names onto
// layer-qualified ones, "parent/child" entries winning over bare ones;
// n is the work the root covered (0: its "pages" attribute).
func (l *spanLog) adopt(parent *openSpan, t traceNode, names map[string]string, n float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.adoptAt(parent, "", t, int64(t.Start.Sub(l.t0)), names, n)
}

func (l *spanLog) adoptAt(parent *openSpan, parentName string, t traceNode, start int64, names map[string]string, n float64) {
	name := t.Name
	if mapped, ok := names[parentName+"/"+name]; ok {
		name = mapped
	} else if mapped, ok := names[name]; ok {
		name = mapped
	}
	if n == 0 {
		n = t.num("pages")
	}
	o := l.add(parent, name, start, time.Duration(t.DurNs), n)
	for _, c := range t.Children {
		if c.Start.Equal(t.Start) {
			// Attached with Span.AddTimed: a stage total, not an
			// interval; lay it after its timed siblings.
			l.adoptAt(o, t.Name, c, start+o.cursor, names, 0)
			continue
		}
		l.adoptAt(o, t.Name, c, int64(c.Start.Sub(l.t0)), names, 0)
	}
}

type openSpan struct {
	log       *spanLog
	id, trace int64
	start     time.Time
	cursor    int64 // offset at which the next timed child starts
}

// end closes the span; n is the work it covered.
func (o *openSpan) end(n float64) time.Duration {
	d := time.Since(o.start)
	if o.log != nil {
		o.log.mu.Lock()
		sp := &o.log.spans[o.id-1]
		sp.Dur, sp.N = int64(d), n
		o.log.mu.Unlock()
	}
	return d
}

// snapshot returns a copy of everything recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its direct children cover. Children that overlap each other (stage
// totals summed over a worker pool, attached at the parent's start) are
// merged first, and anything reaching outside the parent is clipped, so
// self time is never negative.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur - covered(s.Start, s.Start+s.Dur, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// [lo, hi).
func covered(lo, hi int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start+k.Dur
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Few children per span: insertion sort by start.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// agg sums spans by name.
type agg struct {
	count   int
	dur     int64 // ns
	selfDur int64 // ns
	n       float64
}

func aggregate(spans []span) map[string]*agg {
	self := selfTimes(spans)
	out := make(map[string]*agg)
	for _, s := range spans {
		a := out[s.Name]
		if a == nil {
			a = &agg{}
			out[s.Name] = a
		}
		a.count++
		a.dur += s.Dur
		a.selfDur += self[s.ID]
		a.n += s.N
	}
	return out
}

// jsonl renders the spans one JSON object per line.
func jsonl(spans []span) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// traceNode is one node of the program's own span export
// (/debug/traces lines, ceres.Span.JSON).
type traceNode struct {
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	DurNs    int64       `json:"durNs"`
	Attrs    []traceAttr `json:"attrs"`
	Children []traceNode `json:"children"`
}

type traceAttr struct {
	Key string `json:"key"`
	Num int64  `json:"num"`
}

// nodeOf converts a span exported in process.
func nodeOf(j trace.SpanJSON) traceNode {
	n := traceNode{Name: j.Name, Start: j.Start, DurNs: j.DurNs}
	for _, a := range j.Attrs {
		n.Attrs = append(n.Attrs, traceAttr{Key: a.Key, Num: a.Num})
	}
	for _, c := range j.Children {
		n.Children = append(n.Children, nodeOf(c))
	}
	return n
}

func (t traceNode) num(key string) float64 {
	for _, a := range t.Attrs {
		if a.Key == key {
			return float64(a.Num)
		}
	}
	return 0
}
