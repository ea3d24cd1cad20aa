package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ceres"
)

// trainedModelBytes trains a tiny fixed-template film site and returns the
// model serialized in the WriteBinary wire format, plus an unseen page.
func trainedModelBytes(t *testing.T) ([]byte, ceres.PageSource) {
	t.Helper()
	page := func(title, director, year string) string {
		return `<html><body><h1 class="title">` + title + `</h1>
<table class="facts">
<tr><th>Director</th><td>` + director + `</td></tr>
<tr><th>Year</th><td>` + year + `</td></tr>
</table></body></html>`
	}
	k := ceres.NewKB(ceres.NewOntology(
		ceres.Predicate{Name: "directedBy", Domain: "film", Range: "person"},
		ceres.Predicate{Name: "releaseYear", Domain: "film"},
	))
	for i, s := range []struct{ title, director, year string }{
		{"Do the Right Thing", "Spike Lee", "1989"},
		{"Crooklyn", "Spike Lee", "1994"},
		{"The Silent Harbor", "Ada Dahl", "2001"},
	} {
		fid, pid := fmt.Sprintf("f%d", i+1), fmt.Sprintf("p%d", i+1)
		k.AddEntity(ceres.Entity{ID: fid, Type: "film", Name: s.title})
		k.AddEntity(ceres.Entity{ID: pid, Type: "person", Name: s.director})
		k.AddTriple(ceres.KBTriple{Subject: fid, Predicate: "directedBy", Object: ceres.EntityObject(pid)})
		k.AddTriple(ceres.KBTriple{Subject: fid, Predicate: "releaseYear", Object: ceres.LiteralObject(s.year)})
	}
	train := []ceres.PageSource{
		{ID: "m1", HTML: page("Do the Right Thing", "Spike Lee", "1989")},
		{ID: "m2", HTML: page("Crooklyn", "Spike Lee", "1994")},
		{ID: "m3", HTML: page("The Silent Harbor", "Ada Dahl", "2001")},
	}
	model, err := ceres.NewPipeline(k, ceres.WithMinAnnotations(2)).Train(context.Background(), train)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := model.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	unseen := ceres.PageSource{ID: "m9", HTML: page("Glass Meridian", "Ada Dahl", "2021")}
	return buf.Bytes(), unseen
}

func doJSON(t *testing.T, client *http.Client, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestServeEndToEnd publishes a model over HTTP into a DirStore-backed
// daemon and extracts from a page the model never saw — the full
// publish→route→extract round trip of the wire API.
func TestServeEndToEnd(t *testing.T) {
	store, err := ceres.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := ceres.NewRegistry()
	ts := httptest.NewServer(newServer(serverConfig{store: store, reg: reg, maxInflight: 4}))
	defer ts.Close()
	client := ts.Client()

	var health struct {
		Status string `json:"status"`
		Sites  int    `json:"sites"`
	}
	if code := doJSON(t, client, "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if health.Status != "ok" || health.Sites != 0 {
		t.Fatalf("healthz = %+v, want ok with 0 sites", health)
	}

	modelBytes, unseen := trainedModelBytes(t)
	var pub publishResponseJSON
	if code := doJSON(t, client, "PUT", ts.URL+"/v1/sites/films.example/model", modelBytes, &pub); code != 200 {
		t.Fatalf("publish = %d", code)
	}
	if pub.Version != 1 || pub.TrainedClusters != 1 {
		t.Fatalf("publish response = %+v", pub)
	}
	// Republishing bumps the version; the store keeps both.
	if code := doJSON(t, client, "PUT", ts.URL+"/v1/sites/films.example/model", modelBytes, &pub); code != 200 || pub.Version != 2 {
		t.Fatalf("republish = %d, version %d, want 200 version 2", 0, pub.Version)
	}
	if ents, err := store.List(); err != nil || len(ents) != 1 || len(ents[0].Versions) != 2 {
		t.Fatalf("store.List() = %v, %v, want one site with two versions", ents, err)
	}

	var sites []siteJSON
	if code := doJSON(t, client, "GET", ts.URL+"/v1/sites", nil, &sites); code != 200 {
		t.Fatalf("sites = %d", code)
	}
	if len(sites) != 1 || sites[0].Site != "films.example" || sites[0].Version != 2 {
		t.Fatalf("sites = %+v", sites)
	}

	extractBody, err := json.Marshal(extractRequestJSON{
		Pages: []pageJSON{{ID: unseen.ID, HTML: unseen.HTML}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got extractResponseJSON
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract", extractBody, &got); code != 200 {
		t.Fatalf("extract = %d", code)
	}
	if got.Version != 2 || got.Stats.Pages != 1 || got.Stats.RoutedClusters != 1 {
		t.Fatalf("extract response = %+v", got)
	}
	want := map[string]string{"directedBy": "Ada Dahl", "releaseYear": "2021"}
	if len(got.Triples) != len(want) {
		t.Fatalf("extracted %d triples (%+v), want %d", len(got.Triples), got.Triples, len(want))
	}
	for _, tr := range got.Triples {
		if tr.Subject != "Glass Meridian" || want[tr.Predicate] != tr.Object {
			t.Errorf("unexpected triple %+v", tr)
		}
		if tr.Confidence <= 0 || tr.Confidence > 1 {
			t.Errorf("confidence %v out of range", tr.Confidence)
		}
	}

	// Concurrent requests with different per-request thresholds each
	// observe their own cutoff.
	var wg sync.WaitGroup
	codes := make([]extractResponseJSON, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := 0.99
			if i%2 == 0 {
				th = 0.0
			}
			body, _ := json.Marshal(extractRequestJSON{
				Pages:     []pageJSON{{ID: unseen.ID, HTML: unseen.HTML}},
				Threshold: &th,
			})
			doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract", body, &codes[i])
		}(i)
	}
	wg.Wait()
	for i, resp := range codes {
		if i%2 == 0 {
			if resp.Threshold != 0 || len(resp.Triples) < len(got.Triples) {
				t.Errorf("request %d (threshold 0): %+v", i, resp)
			}
		} else if resp.Threshold != 0.99 {
			t.Errorf("request %d (threshold .99): %+v", i, resp)
		}
		for _, tr := range resp.Triples {
			if tr.Confidence < resp.Threshold {
				t.Errorf("request %d: triple below its own threshold: %+v", i, tr)
			}
		}
	}
}

func TestServeErrorPaths(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{reg: ceres.NewRegistry()}))
	defer ts.Close()
	client := ts.Client()

	var errResp struct {
		Error string `json:"error"`
	}
	body, _ := json.Marshal(extractRequestJSON{Pages: []pageJSON{{ID: "p", HTML: "<html></html>"}}})
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/nope/extract", body, &errResp); code != http.StatusNotFound {
		t.Errorf("unknown site = %d (%s), want 404", code, errResp.Error)
	}
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/nope/extract", []byte("{"), &errResp); code != http.StatusBadRequest {
		t.Errorf("bad JSON = %d, want 400", code)
	}
	// A model is the binary format or nothing: a JSON body is as foreign
	// as any other.
	for _, bad := range []string{"not a model", `{"format":"ceres.sitemodel/2","threshold":0.5,"model":{}}`} {
		if code := doJSON(t, client, "PUT", ts.URL+"/v1/sites/nope/model", []byte(bad), &errResp); code != http.StatusBadRequest {
			t.Errorf("PUT %q = %d, want 400", bad, code)
		}
		if !strings.Contains(errResp.Error, "site model") || !strings.Contains(errResp.Error, "bad magic") {
			t.Errorf("PUT %q: error %q does not name the model and its magic", bad, errResp.Error)
		}
	}

	// A registry-only daemon assigns versions itself.
	modelBytes, unseen := trainedModelBytes(t)
	var pub publishResponseJSON
	if code := doJSON(t, client, "PUT", ts.URL+"/v1/sites/mem.example/model", modelBytes, &pub); code != 200 || pub.Version != 1 {
		t.Fatalf("registry-only publish = %d %+v", code, pub)
	}
	// An empty page set — and a page with an empty ID — are the client's
	// fault, never a 5xx.
	body, _ = json.Marshal(extractRequestJSON{})
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/mem.example/extract", body, &errResp); code != http.StatusBadRequest {
		t.Errorf("no pages = %d, want 400", code)
	}
	body, _ = json.Marshal(extractRequestJSON{Pages: []pageJSON{{ID: "", HTML: unseen.HTML}}})
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/mem.example/extract", body, &errResp); code != http.StatusBadRequest {
		t.Errorf("empty page ID = %d (%s), want 400", code, errResp.Error)
	}
	// Pages go to the service while the body is still being decoded, and
	// the body's own faults still come first: an empty ID after good pages
	// is named by its page, and a body that breaks off after good pages is
	// a 400 for an unknown site too.
	body, _ = json.Marshal(extractRequestJSON{Pages: []pageJSON{{ID: "a", HTML: unseen.HTML}, {ID: "b", HTML: unseen.HTML}, {HTML: unseen.HTML}}})
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/mem.example/extract", body, &errResp); code != http.StatusBadRequest || !strings.Contains(errResp.Error, "page 2 has an empty ID") {
		t.Errorf("empty ID on page 2 = %d (%s), want 400 naming page 2", code, errResp.Error)
	}
	cut := body[:len(body)-20]
	for _, site := range []string{"mem.example", "nope"} {
		if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/"+site+"/extract", cut, &errResp); code != http.StatusBadRequest || !strings.HasPrefix(errResp.Error, "decoding request") {
			t.Errorf("%s, body cut after two pages = %d (%s), want 400 decoding request", site, code, errResp.Error)
		}
	}
}

// TestServeObservabilityEndpoints exercises the drift snapshot, the
// trace dump and the gated pprof surface: on when asked for, absent on
// a default daemon.
func TestServeObservabilityEndpoints(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{
		reg: ceres.NewRegistry(), traceSample: 1, pprof: true,
	}))
	defer ts.Close()
	client := ts.Client()

	modelBytes, unseen := trainedModelBytes(t)
	var pub publishResponseJSON
	if code := doJSON(t, client, "PUT", ts.URL+"/v1/sites/films.example/model", modelBytes, &pub); code != 200 {
		t.Fatalf("publish = %d", code)
	}
	body, _ := json.Marshal(extractRequestJSON{Pages: []pageJSON{{ID: unseen.ID, HTML: unseen.HTML}}})
	var ext extractResponseJSON
	if code := doJSON(t, client, "POST", ts.URL+"/v1/sites/films.example/extract", body, &ext); code != 200 {
		t.Fatalf("extract = %d", code)
	}

	// Drift snapshot: the served request is visible per site.
	var stats ceres.SiteDriftStats
	if code := doJSON(t, client, "GET", ts.URL+"/v1/sites/films.example/stats", nil, &stats); code != 200 {
		t.Fatalf("stats = %d", code)
	}
	if stats.Site != "films.example" || stats.Requests != 1 || stats.Pages != 1 || stats.Confidence.Count == 0 {
		t.Fatalf("drift snapshot wrong: %+v", stats)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if code := doJSON(t, client, "GET", ts.URL+"/v1/sites/nope/stats", nil, &errResp); code != http.StatusNotFound {
		t.Errorf("unknown-site stats = %d, want 404", code)
	}

	// Trace dump: the sampled request's span tree, one NDJSON line per
	// retained root.
	resp, err := client.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	traceBody := new(bytes.Buffer)
	if _, err := traceBody.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("traces = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var root struct {
		Name     string `json:"name"`
		Children []struct {
			Name string `json:"name"`
		} `json:"children"`
	}
	if err := json.Unmarshal(traceBody.Bytes(), &root); err != nil {
		t.Fatalf("trace line is not JSON: %v\n%s", err, traceBody)
	}
	if root.Name != "service.extract" || len(root.Children) < 4 {
		t.Fatalf("trace tree = %+v", root)
	}

	// pprof: wired when opted in.
	resp, err = client.Get(ts.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	profile := new(bytes.Buffer)
	profile.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(profile.String(), "goroutine profile:") {
		t.Fatalf("pprof goroutine = %d %q", resp.StatusCode, profile.String()[:min(60, profile.Len())])
	}

	// A default daemon exposes neither surface.
	bare := httptest.NewServer(newServer(serverConfig{reg: ceres.NewRegistry()}))
	defer bare.Close()
	for _, path := range []string{"/debug/traces", "/debug/pprof/goroutine"} {
		resp, err := bare.Client().Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("default daemon %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeConcurrentRequestBuffers drives 8 concurrent clients across
// two sites with distinct thresholds through the real HTTP stack. Page
// HTML aliases a recycled request buffer, so a buffer handed to the next
// request before its own response was written would corrupt pages
// mid-extraction: every response must match its own in-process oracle.
// Run under -race this also checks the workers' shared read of one
// request buffer.
func TestServeConcurrentRequestBuffers(t *testing.T) {
	ctx := context.Background()
	reg := ceres.NewRegistry()
	type target struct {
		site      string
		threshold float64
		bodies    [][]byte
		want      [][]ceres.Triple
		triples   int
	}
	targets := []*target{{site: "imdb-films", threshold: 0.5}, {site: "imdb-people", threshold: 0.9}}
	for _, tg := range targets {
		m, serve := chromeSite(t, tg.site, 7, 30, 12, 8<<10)
		reg.PublishNext(tg.site, m)
		oracle := ceres.NewService(reg)
		for lo := 0; lo < len(serve); lo += 4 {
			pages := serve[lo : lo+4]
			body, err := json.Marshal(extractRequestJSON{Pages: wirePages(pages), Threshold: &tg.threshold})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := oracle.Extract(ctx, ceres.ExtractRequest{Site: tg.site, Pages: pages, Options: ceres.RequestOptions{Threshold: &tg.threshold}})
			if err != nil {
				t.Fatal(err)
			}
			tg.bodies, tg.want = append(tg.bodies, body), append(tg.want, resp.Triples)
			tg.triples += len(resp.Triples)
		}
		if tg.triples == 0 {
			t.Fatalf("%s: the oracle extracts nothing; the test would compare empty responses", tg.site)
		}
	}
	ts := httptest.NewServer(newServer(serverConfig{reg: reg}))
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tg := targets[c%2]
			for round := 0; round < 12; round++ {
				i := (c + round) % len(tg.bodies)
				resp, err := ts.Client().Post(ts.URL+"/v1/sites/"+tg.site+"/extract", "application/json", bytes.NewReader(tg.bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				var got extractResponseJSON
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || got.Threshold != tg.threshold {
					t.Errorf("client %d %s request %d: status %d threshold %v: %v", c, tg.site, i, resp.StatusCode, got.Threshold, err)
					return
				}
				var triples []ceres.Triple
				for _, tr := range got.Triples {
					triples = append(triples, ceres.Triple{Subject: tr.Subject, Predicate: tr.Predicate, Object: tr.Object, Confidence: tr.Confidence, Page: tr.Page, Path: tr.Path})
				}
				if !reflect.DeepEqual(triples, tg.want[i]) {
					t.Errorf("client %d %s request %d: %d triples, oracle has %d, or contents differ", c, tg.site, i, len(triples), len(tg.want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
}
