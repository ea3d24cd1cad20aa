package ceres

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// metricsText renders a Metrics registry for assertions.
func metricsText(t *testing.T, m *Metrics) string {
	t.Helper()
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestServiceShedsWithErrOverloaded saturates a single-slot service with
// bounded admission and checks the typed sentinel, the shed counter and
// the inflight gauge.
func TestServiceShedsWithErrOverloaded(t *testing.T) {
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	reg.Publish("demo", 1, f.model)
	m := NewMetrics()
	svc := NewService(reg, WithMaxInflight(1), WithAdmissionWait(0), WithMetrics(m))

	block := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		holdSlot(svc, f.serve[0], block, release)
	}()
	<-block // the only slot is held mid-request

	// Shed happens immediately (admission wait 0) with the typed
	// sentinel, not a context error and not an internal error.
	_, err := svc.Extract(context.Background(), ExtractRequest{Site: "demo", Pages: f.serve})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated Extract = %v, want ErrOverloaded", err)
	}
	// The gauge sees exactly the in-flight request.
	if text := metricsText(t, m); !strings.Contains(text, "ceres_inflight_requests 1") {
		t.Errorf("inflight gauge during a held request:\n%s", text)
	}
	close(release)
	wg.Wait()

	text := metricsText(t, m)
	for _, want := range []string{
		"ceres_requests_shed_total 1",
		"ceres_inflight_requests 0",
		`ceres_requests_total{site="demo"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServiceAdmissionWaitAdmitsWhenSlotFrees: a bounded wait long
// enough to span the held slot admits instead of shedding.
func TestServiceAdmissionWaitAdmitsWhenSlotFrees(t *testing.T) {
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	reg.Publish("demo", 1, f.model)
	svc := NewService(reg, WithMaxInflight(1), WithAdmissionWait(30*time.Second))

	block := make(chan struct{})
	release := make(chan struct{})
	go holdSlot(svc, f.serve[0], block, release)
	<-block
	done := make(chan error, 1)
	go func() {
		_, err := svc.Extract(context.Background(), ExtractRequest{Site: "demo", Pages: f.serve})
		done <- err
	}()
	// Give the second request a moment to reach the admission queue,
	// then free the slot: it must serve, not shed.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("queued request within admission wait failed: %v", err)
	}
}

// TestServiceMetricsExposition drives requests through an instrumented
// service + registry and parses the full exposition, asserting every
// acceptance-criteria family: latency histograms, per-site counters,
// model versions, inflight, shed and swap counts.
func TestServiceMetricsExposition(t *testing.T) {
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	m := NewMetrics()
	reg.Instrument(m)
	reg.Publish("demo", 1, f.model)
	svc := NewService(reg, WithMetrics(m))
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Extract(ctx, ExtractRequest{Site: "nope", Pages: f.serve}); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("unknown site = %v", err)
	}
	reg.Publish("demo", 2, f.model) // a hot swap

	text := metricsText(t, m)
	samples := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			samples[line] = true
		}
	}
	for _, want := range []string{
		`ceres_requests_total{site="demo"} 3`,
		`ceres_request_errors_total{site="_unknown"} 1`,
		`ceres_model_version{site="demo"} 2`,
		"ceres_registry_swaps_total 2",
		"ceres_registry_sites 1",
		"ceres_inflight_requests 0",
		"ceres_requests_shed_total 0",
		`ceres_request_latency_seconds_count{site="demo"} 3`,
	} {
		if !samples[want] {
			t.Errorf("exposition missing sample %q:\n%s", want, text)
		}
	}
	// Pages/triples counters accumulated across the three requests.
	wantPages := 3 * len(f.serve)
	if !strings.Contains(text, `ceres_pages_total{site="demo"} `+itoa(wantPages)) {
		t.Errorf("pages counter != %d:\n%s", wantPages, text)
	}
	// The latency histogram has cumulative buckets ending in +Inf == count.
	if !strings.Contains(text, `ceres_request_latency_seconds_bucket{site="demo",le="+Inf"} 3`) {
		t.Errorf("latency +Inf bucket != count:\n%s", text)
	}
	if !strings.Contains(text, "# TYPE ceres_request_latency_seconds histogram") {
		t.Errorf("latency family missing TYPE histogram:\n%s", text)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestServiceMetricsSharedRegistry: two services instrumenting one
// Metrics must coexist (idempotent registration), with counts merged.
func TestServiceMetricsSharedRegistry(t *testing.T) {
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	reg.Publish("demo", 1, f.model)
	m := NewMetrics()
	a := NewService(reg, WithMetrics(m))
	b := NewService(reg, WithMetrics(m))
	ctx := context.Background()
	if _, err := a.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve}); err != nil {
		t.Fatal(err)
	}
	if text := metricsText(t, m); !strings.Contains(text, `ceres_requests_total{site="demo"} 2`) {
		t.Errorf("shared registry did not merge counts:\n%s", text)
	}
}
