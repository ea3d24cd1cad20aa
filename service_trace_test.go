package ceres

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// tracedFixture builds an instrumented, traced service over the shared
// train/serve fixture.
func tracedFixture(t *testing.T, o TracerOptions) (*trainServeFixture, *Service, *Tracer, *Metrics) {
	t.Helper()
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	reg.Publish("demo", 1, f.model)
	m := NewMetrics()
	tr := NewTracer(o)
	tr.Instrument(m)
	svc := NewService(reg, WithMetrics(m), WithTracer(tr))
	return f, svc, tr, m
}

// TestServiceExtractSpanTree is the ISSUE-10 acceptance shape: a traced
// extract request must expose a complete span tree — admission →
// lookup → extract(parse, route, score) → fuse — with correct
// parentage and durations.
func TestServiceExtractSpanTree(t *testing.T) {
	f, svc, tr, _ := tracedFixture(t, TracerOptions{SampleEvery: 1})
	resp, err := svc.Extract(context.Background(), ExtractRequest{Site: "demo", Pages: f.serve})
	if err != nil {
		t.Fatal(err)
	}
	roots := tr.Roots()
	if len(roots) != 1 {
		t.Fatalf("retained %d traces, want 1", len(roots))
	}
	root := roots[0]
	if root.Name() != "service.extract" || !root.Ended() {
		t.Fatalf("root = %q ended=%v", root.Name(), root.Ended())
	}
	kids := root.Children()
	var names []string
	for _, k := range kids {
		names = append(names, k.Name())
		if !k.Ended() {
			t.Errorf("child span %q not ended", k.Name())
		}
	}
	want := []string{"admission", "lookup", "extract", "fuse"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("span children = %v, want %v", names, want)
	}
	ex := root.Child("extract")
	var stages []string
	for _, k := range ex.Children() {
		stages = append(stages, k.Name())
	}
	if strings.Join(stages, ",") != "parse,route,score" {
		t.Fatalf("extract stage spans = %v, want [parse route score]", stages)
	}
	// Durations: the root covers its direct children's wall time, and the
	// score stage of a real extraction cannot be zero.
	for _, k := range kids {
		if k.Duration() > root.Duration() {
			t.Errorf("child %q duration %v exceeds root %v", k.Name(), k.Duration(), root.Duration())
		}
	}
	if ex.Child("score").Duration() <= 0 {
		t.Error("score stage span has no recorded time")
	}
	// The breakdown the response reports is the same data the spans carry.
	if resp.Stats.Stages.Score != ex.Child("score").Duration() {
		t.Errorf("response stage breakdown %v disagrees with span %v",
			resp.Stats.Stages.Score, ex.Child("score").Duration())
	}
	js := root.JSON()
	var site string
	for _, a := range js.Attrs {
		if a.Key == "site" {
			site = a.Str
		}
	}
	if site != "demo" || js.DurNs <= 0 {
		t.Errorf("root JSON attrs/duration wrong: %+v", js)
	}
	if st := tr.Stats(); st.Started != st.Ended || st.DoubleEnds != 0 {
		t.Errorf("span lifecycle imbalance: %+v", st)
	}
}

// TestServiceStagesOnEveryResponse: every entry reports its serve time by
// stage whether or not the request is traced, and a traced request's
// parse, route and score spans carry exactly the response's numbers.
func TestServiceStagesOnEveryResponse(t *testing.T) {
	f := getTrainServeFixture(t)
	_, pages := packPages(f.serve)
	scan := func(yield func(string, []byte) error) error {
		for _, p := range pages {
			if err := yield(p.ID, p.HTML); err != nil {
				return err
			}
		}
		return nil
	}
	entries := []struct {
		name string
		call func(*Service) (*ExtractResponse, error)
	}{
		{"Extract", func(svc *Service) (*ExtractResponse, error) {
			return svc.Extract(context.Background(), ExtractRequest{Site: "demo", Pages: f.serve})
		}},
		{"ExtractBytes", func(svc *Service) (*ExtractResponse, error) {
			return svc.ExtractBytes(context.Background(), "demo", PageSlice(pages), RequestOptions{Workers: 4})
		}},
		{"ExtractScan", func(svc *Service) (*ExtractResponse, error) {
			return svc.ExtractScan(context.Background(), "demo", RequestOptions{}, scan)
		}},
	}
	for _, e := range entries {
		t.Run(e.name, func(t *testing.T) {
			reg := NewRegistry()
			reg.Publish("demo", 1, f.model)
			resp, err := e.call(NewService(reg))
			if err != nil {
				t.Fatal(err)
			}
			if st := resp.Stats.Stages; st.Parse <= 0 || st.Score <= 0 {
				t.Errorf("untraced stages = %+v, want parse and score time", st)
			}

			_, svc, tr, _ := tracedFixture(t, TracerOptions{SampleEvery: 1})
			if resp, err = e.call(svc); err != nil {
				t.Fatal(err)
			}
			roots := tr.Roots()
			if len(roots) != 1 {
				t.Fatalf("retained %d traces, want 1", len(roots))
			}
			ex := roots[0].Child("extract")
			st := resp.Stats.Stages
			for _, s := range []struct {
				name string
				want time.Duration
			}{{"parse", st.Parse}, {"route", st.Route}, {"score", st.Score}} {
				if got := ex.Child(s.name).Duration(); got != s.want {
					t.Errorf("%s span %v, response %v", s.name, got, s.want)
				}
			}
		})
	}
}

// TestServiceTraceCancelClosesSpansOnce cancels requests at different
// points (pre-admission, mid-request from inside the scan) and asserts
// every span still closes exactly once.
func TestServiceTraceCancelClosesSpansOnce(t *testing.T) {
	f, svc, tr, _ := tracedFixture(t, TracerOptions{SampleEvery: 1})

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := svc.Extract(pre, ExtractRequest{Site: "demo", Pages: f.serve}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Extract = %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := 0
	_, err := svc.ExtractScan(ctx, "demo", RequestOptions{}, func(yield func(string, []byte) error) error {
		for _, p := range f.serve {
			if err := yield(p.ID, []byte(p.HTML)); err != nil {
				return err
			}
			served++
			cancel() // mid-request cancellation, a page already extracted
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel = %v, want context.Canceled", err)
	}
	if served == 0 {
		t.Fatal("scan cancelled before serving anything; test proves nothing")
	}

	st := tr.Stats()
	if st.Started != st.Ended {
		t.Fatalf("cancelled requests leaked spans: started %d, ended %d", st.Started, st.Ended)
	}
	if st.DoubleEnds != 0 {
		t.Fatalf("cancelled requests double-ended %d spans", st.DoubleEnds)
	}
	// Both traces were retained with their error recorded on the root.
	roots := tr.Roots()
	if len(roots) != 2 {
		t.Fatalf("retained %d traces, want 2", len(roots))
	}
	for i, r := range roots {
		if r.Err() == "" {
			t.Errorf("trace %d lost its cancellation error", i)
		}
	}
}

// TestServiceSharedTracerConcurrent hammers one traced service from 8
// workers (run under -race in CI) and checks the lifecycle counters
// balance.
func TestServiceSharedTracerConcurrent(t *testing.T) {
	f, svc, tr, _ := tracedFixture(t, TracerOptions{SampleEvery: 2, Capacity: 16})
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if _, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve[:4]}); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.Sampled != 24 {
		t.Fatalf("sampled %d of 48 requests at 1-in-2, want 24", st.Sampled)
	}
	if st.Started != st.Ended || st.DoubleEnds != 0 {
		t.Fatalf("span lifecycle imbalance under concurrency: %+v", st)
	}
	if got := len(tr.Roots()); got != 16 {
		t.Fatalf("ring holds %d traces, want capacity 16", got)
	}
}

// TestServiceSampledOutAllocParity: with tracing attached but sampling
// off, the serve path must allocate exactly what an untraced service
// allocates — the nil-span fast path is free.
func TestServiceSampledOutAllocParity(t *testing.T) {
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	reg.Publish("demo", 1, f.model)
	base := NewService(reg)
	traced := NewService(reg, WithTracer(NewTracer(TracerOptions{SampleEvery: 0})))
	ctx := context.Background()
	req := ExtractRequest{Site: "demo", Pages: f.serve[:8], Options: RequestOptions{Workers: 1}}
	run := func(svc *Service) func() {
		return func() {
			if _, err := svc.Extract(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm both paths (scratch pools, label tables) before measuring.
	run(base)()
	run(traced)()
	baseAllocs := testing.AllocsPerRun(5, run(base))
	tracedAllocs := testing.AllocsPerRun(5, run(traced))
	// Under the race detector sync.Pool drops entries at random, so the
	// two counts differ by pool refills that have nothing to do with
	// tracing; the runs above still exercise both paths.
	if baseAllocs != tracedAllocs && !raceEnabled {
		t.Fatalf("sampling-off traced Extract allocates %.1f/op, untraced %.1f/op; must be identical", tracedAllocs, baseAllocs)
	}
}

// TestServiceSiteStatsDriftSnapshot drives pages — including a blank
// one that extracts nothing — and checks the drift snapshot against
// both the API and the exposed metric families.
func TestServiceSiteStatsDriftSnapshot(t *testing.T) {
	f, svc, _, m := tracedFixture(t, TracerOptions{SampleEvery: 1})
	ctx := context.Background()
	pages := append(append([]PageSource(nil), f.serve[:6]...),
		PageSource{ID: "blank", HTML: "<html><body><p>nothing here</p></body></html>"})
	// A strict threshold drops most triples; confidences are observed
	// before it.
	th := 0.99
	resp, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: pages, Options: RequestOptions{Threshold: &th}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.EmptyPages == 0 {
		t.Fatalf("blank page not counted empty: %+v", resp.Stats)
	}
	if s := resp.Stats; s.Fields == 0 || s.ContextMisses > s.Fields || s.ContextUncached > s.ContextMisses {
		t.Fatalf("context counters: %d fields, %d misses, %d uncached", s.Fields, s.ContextMisses, s.ContextUncached)
	}

	st, ok := svc.SiteStats("demo")
	if !ok {
		t.Fatal("SiteStats for a registered site reported !ok")
	}
	if st.Site != "demo" || st.ModelVersion != 1 || st.Requests != 1 {
		t.Fatalf("snapshot identity wrong: %+v", st)
	}
	if st.Pages != int64(len(pages)) || st.EmptyPages != int64(resp.Stats.EmptyPages) {
		t.Fatalf("snapshot counters disagree with response stats: %+v vs %+v", st, resp.Stats)
	}
	if st.EmptyPageRate <= 0 || st.EmptyPageRate > 1 {
		t.Fatalf("EmptyPageRate = %v", st.EmptyPageRate)
	}
	if st.Confidence.Count == 0 || st.MeanConfidence <= 0 || st.MeanConfidence > 1 {
		t.Fatalf("confidence distribution empty or out of range: %+v", st)
	}
	if st.Triples >= st.Confidence.Count {
		t.Errorf("thresholded triples (%d) should undercount observed confidences (%d)", st.Triples, st.Confidence.Count)
	}
	var bucketSum int64
	for _, c := range st.Confidence.Counts {
		bucketSum += c
	}
	if bucketSum != st.Confidence.Count || len(st.Confidence.Counts) != len(st.Confidence.Bounds)+1 {
		t.Fatalf("confidence histogram shape inconsistent: %+v", st.Confidence)
	}

	// The same signals must be visible in /metrics, from the same counters.
	text := metricsText(t, m)
	for _, want := range []string{
		`ceres_extraction_confidence_count{site="demo"} ` + itoa(int(st.Confidence.Count)),
		`ceres_empty_pages_total{site="demo"} ` + itoa(int(st.EmptyPages)),
		`ceres_routing_miss_total{site="demo"} ` + itoa(int(st.RoutingMisses)),
		`ceres_fields_total{site="demo"} ` + itoa(resp.Stats.Fields),
		`ceres_context_misses_total{site="demo"} ` + itoa(resp.Stats.ContextMisses),
		"ceres_trace_roots_sampled_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	if _, ok := svc.SiteStats("nope"); ok {
		t.Error("SiteStats for an unregistered site reported ok")
	}
	bareReg := NewRegistry()
	bareReg.Publish("demo", 1, f.model)
	bare := NewService(bareReg)
	if _, ok := bare.SiteStats("demo"); ok {
		t.Error("SiteStats on an uninstrumented service reported ok")
	}
}
