package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ceres"
	"ceres/internal/obs/obstest"
)

// scrape fetches and strictly parses a test server's /metrics.
func scrape(t *testing.T, client *http.Client, base string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obstest.Parse(string(raw))
	if err != nil {
		t.Fatalf("parsing /metrics: %v\n%s", err, raw)
	}
	return samples
}

func publishSite(t *testing.T, client *http.Client, base, site string, model []byte) {
	t.Helper()
	var pub publishResponseJSON
	if code := doJSON(t, client, "PUT", base+"/v1/sites/"+site+"/model", model, &pub); code != 200 {
		t.Fatalf("publish %s = %d", site, code)
	}
}

func extractBody(t *testing.T, pages ...ceres.PageSource) []byte {
	t.Helper()
	body, err := json.Marshal(extractRequestJSON{Pages: wirePages(pages)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServeMetricsEndpoint drives traffic through the daemon and
// parse-and-asserts the exposition: request counters, latency
// histograms, model versions, HTTP response codes, inflight and shed.
func TestServeMetricsEndpoint(t *testing.T) {
	store, err := ceres.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(serverConfig{store: store, reg: ceres.NewRegistry(), maxInflight: 4}))
	defer ts.Close()
	client := ts.Client()

	model, unseen := trainedModelBytes(t)
	publishSite(t, client, ts.URL, "films.example", model)
	publishSite(t, client, ts.URL, "films.example", model) // version 2 = one swap past boot
	body := extractBody(t, unseen)
	for i := 0; i < 3; i++ {
		var out extractResponseJSON
		if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract", body, &out); code != 200 {
			t.Fatalf("extract %d = %d", i, code)
		}
	}
	// One client-fault request for the error counters.
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/unknown.example/extract", body, nil); code != 404 {
		t.Fatalf("unknown site = %d", code)
	}

	samples := scrape(t, client, ts.URL)
	for series, want := range map[string]float64{
		`ceres_requests_total{site="films.example"}`:                           3,
		`ceres_request_errors_total{site="_unknown"}`:                          1,
		`ceres_request_latency_seconds_count{site="films.example"}`:            3,
		`ceres_model_version{site="films.example"}`:                            2,
		"ceres_registry_sites":                                                 1,
		"ceres_registry_swaps_total":                                           2,
		"ceres_inflight_requests":                                              0,
		"ceres_requests_shed_total":                                            0,
		`ceres_http_responses_total{code="200"}`:                               5,
		`ceres_http_responses_total{code="404"}`:                               1,
		`ceres_request_latency_seconds_bucket{site="films.example",le="+Inf"}`: 3,
	} {
		if got, ok := samples[series]; !ok || got != want {
			t.Errorf("series %s = %v (present=%v), want %v", series, got, ok, want)
		}
	}
	if samples[`ceres_pages_total{site="films.example"}`] != 3 {
		t.Errorf("pages counter = %v, want 3", samples[`ceres_pages_total{site="films.example"}`])
	}
}

// TestServeDrain holds a real extraction in flight, starts a drain, and
// checks the contract: /readyz flips to 503 while /healthz stays 200,
// new extract and publish requests are refused, and the in-flight
// request still completes successfully.
func TestServeDrain(t *testing.T) {
	reg := ceres.NewRegistry()
	srv := newServer(serverConfig{reg: reg, maxInflight: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	model, unseen := trainedModelBytes(t)
	publishSite(t, client, ts.URL, "films.example", model)

	// A single-worker request over many copies of the page stays in
	// flight long enough for the drain assertions below.
	req := extractRequestJSON{Workers: 1}
	for i := 0; i < 4000; i++ {
		req.Pages = append(req.Pages, pageJSON{ID: fmt.Sprintf("p%d", i), HTML: unseen.HTML})
	}
	bigBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan extractResponseJSON, 1)
	go func() {
		var out extractResponseJSON
		if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract", bigBody, &out); code != 200 {
			t.Errorf("in-flight extract finished %d, want 200", code)
		}
		done <- out
	}()
	// Wait until the big request is visibly in flight, then drain. The
	// deadline is generous: under a fully parallel `go test ./...` the
	// body decode alone can be starved for seconds.
	deadline := time.Now().Add(30 * time.Second)
	for scrape(t, client, ts.URL)["ceres_inflight_requests"] < 1 {
		if time.Now().After(deadline) {
			t.Fatal("big request never became visible in the inflight gauge")
		}
		time.Sleep(time.Millisecond)
	}
	srv.StartDrain()

	probe := func(path string) int {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := probe("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", code)
	}
	if code := probe("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", code)
	}
	var errResp errorJSON
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract",
		extractBody(t, unseen), &errResp); code != http.StatusServiceUnavailable {
		t.Errorf("new extract during drain = %d, want 503", code)
	}
	if !strings.Contains(errResp.Error, "draining") {
		t.Errorf("drain refusal error = %q, want mention of draining", errResp.Error)
	}
	if code := doJSON(t, client, "PUT", ts.URL+"/v1/sites/films.example/model", model, nil); code != http.StatusServiceUnavailable {
		t.Errorf("publish during drain = %d, want 503", code)
	}

	// The held request drains to completion.
	select {
	case out := <-done:
		if out.Stats.Pages != 4000 {
			t.Errorf("drained request served %d pages, want 4000", out.Stats.Pages)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}
}

// TestServeRequestID: generated IDs are echoed on responses, inbound
// X-Request-ID is honored, and error bodies carry the ID.
func TestServeRequestID(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{reg: ceres.NewRegistry()}))
	defer ts.Close()
	client := ts.Client()

	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-ID")
	if generated == "" {
		t.Fatal("no X-Request-ID on a plain response")
	}
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if again := resp.Header.Get("X-Request-ID"); again == generated {
		t.Errorf("request IDs repeat: %q", again)
	}

	// An inbound ID is adopted and echoed, including in the error body.
	req, err := http.NewRequest("POST", ts.URL+"/v1/sites/nope/extract",
		bytes.NewReader(extractBody(t, ceres.PageSource{ID: "p", HTML: "<html></html>"})))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "req-abc-123")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-abc-123" {
		t.Errorf("inbound ID not echoed: %q", got)
	}
	var errResp errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatal(err)
	}
	if errResp.RequestID != "req-abc-123" {
		t.Errorf("error body requestId = %q, want req-abc-123", errResp.RequestID)
	}
	if errResp.Error == "" {
		t.Error("error body lost its message")
	}
}

// TestServeRateLimit: a site over its token bucket gets 429s with the
// limit counted per site, and an untouched site is unaffected.
func TestServeRateLimit(t *testing.T) {
	reg := ceres.NewRegistry()
	ts := httptest.NewServer(newServer(serverConfig{reg: reg, rateLimit: 0.001, rateBurst: 3}))
	defer ts.Close()
	client := ts.Client()

	model, unseen := trainedModelBytes(t)
	publishSite(t, client, ts.URL, "films.example", model)
	publishSite(t, client, ts.URL, "other.example", model)
	body := extractBody(t, unseen)

	codes := map[int]int{}
	for i := 0; i < 5; i++ {
		codes[doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract", body, nil)]++
	}
	if codes[200] != 3 || codes[429] != 2 {
		t.Fatalf("burst-3 limit over 5 requests: %v, want 3×200 + 2×429", codes)
	}
	// The limit is per site: a different site still has its burst.
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/other.example/extract", body, nil); code != 200 {
		t.Errorf("other site = %d, want 200 (limit must be per-site)", code)
	}
	samples := scrape(t, client, ts.URL)
	if got := samples[`ceres_http_ratelimited_total{site="films.example"}`]; got != 2 {
		t.Errorf("ratelimited counter = %v, want 2", got)
	}
	if got := samples[`ceres_http_responses_total{code="429"}`]; got != 2 {
		t.Errorf("429 response counter = %v, want 2", got)
	}
}

// TestServeBinaryModelPUT: the publish endpoint accepts the binary
// ceres.sitemodel/3 payload (what DirStore stores and `ceres export`
// emits), sniffed by magic — and the published model serves.
func TestServeBinaryModelPUT(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{reg: ceres.NewRegistry()}))
	defer ts.Close()
	client := ts.Client()

	jsonModel, unseen := trainedModelBytes(t)
	m, err := ceres.ReadSiteModel(bytes.NewReader(jsonModel))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if _, err := m.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(bin.Bytes(), []byte("{")) {
		t.Fatal("WriteBinary produced JSON; fixture is wrong")
	}
	var pub publishResponseJSON
	if code := doJSON(t, client, "PUT", ts.URL+"/v1/sites/films.example/model", bin.Bytes(), &pub); code != 200 {
		t.Fatalf("binary publish = %d", code)
	}
	if pub.Version != 1 || pub.TrainedClusters == 0 {
		t.Fatalf("binary publish response = %+v", pub)
	}
	var out extractResponseJSON
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract",
		extractBody(t, unseen), &out); code != 200 {
		t.Fatalf("extract through binary-published model = %d", code)
	}
	if len(out.Triples) == 0 {
		t.Fatal("binary-published model extracted nothing")
	}
}

// TestStatusOfOverloaded: the typed shed sentinel maps to 429.
func TestStatusOfOverloaded(t *testing.T) {
	if got := statusOf(fmt.Errorf("wrapped: %w", ceres.ErrOverloaded)); got != http.StatusTooManyRequests {
		t.Errorf("statusOf(ErrOverloaded) = %d, want 429", got)
	}
}

// TestRateLimiterRefill covers the token-bucket math directly: burst
// spends down, time refills at the configured rate, and the bucket caps
// at burst.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2, 2) // 2 req/s, burst 2
	now := time.Unix(1000, 0)
	if !l.allow("s", now) || !l.allow("s", now) {
		t.Fatal("burst of 2 not granted")
	}
	if l.allow("s", now) {
		t.Fatal("third immediate request allowed past burst")
	}
	// 500ms refills one token at 2/s.
	now = now.Add(500 * time.Millisecond)
	if !l.allow("s", now) {
		t.Fatal("refilled token not granted")
	}
	if l.allow("s", now) {
		t.Fatal("granted more than the refill")
	}
	// A long idle period caps at burst, not unbounded.
	now = now.Add(time.Hour)
	if !l.allow("s", now) || !l.allow("s", now) {
		t.Fatal("capped burst not granted after idle")
	}
	if l.allow("s", now) {
		t.Fatal("bucket exceeded burst after idle")
	}
	if newRateLimiter(0, 5) != nil {
		t.Fatal("rate 0 must disable limiting")
	}
}
