package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ceres"
)

// tripleJSON, statsJSON and extractResponseJSON are the extract response
// as encoding/json sees it: the reference shape appendExtractResponse
// must write byte for byte, and what the tests decode responses into.
type tripleJSON struct {
	Subject    string  `json:"subject"`
	Predicate  string  `json:"predicate"`
	Object     string  `json:"object"`
	Confidence float64 `json:"confidence"`
	Page       string  `json:"page"`
	Path       string  `json:"path"`
}

type statsJSON struct {
	Pages          int     `json:"pages"`
	Triples        int     `json:"triples"`
	RoutedClusters int     `json:"routedClusters"`
	LatencyMs      float64 `json:"latencyMs"`
}

type extractResponseJSON struct {
	Site      string       `json:"site"`
	Version   int          `json:"version"`
	Threshold float64      `json:"threshold"`
	Triples   []tripleJSON `json:"triples"`
	Stats     statsJSON    `json:"stats"`
}

// stdlibResponse is resp as the handler wrote it while encoding/json did
// the writing: a non-nil triples slice, through json.Encoder.
func stdlibResponse(resp *ceres.ExtractResponse) ([]byte, error) {
	out := extractResponseJSON{
		Site:      resp.Site,
		Version:   resp.Version,
		Threshold: resp.Threshold,
		Triples:   make([]tripleJSON, len(resp.Triples)),
		Stats: statsJSON{
			Pages:          resp.Stats.Pages,
			Triples:        resp.Stats.Triples,
			RoutedClusters: resp.Stats.RoutedClusters,
			LatencyMs:      float64(resp.Stats.Latency.Microseconds()) / 1000,
		},
	}
	for i, t := range resp.Triples {
		out.Triples[i] = tripleJSON{
			Subject: t.Subject, Predicate: t.Predicate, Object: t.Object,
			Confidence: t.Confidence, Page: t.Page, Path: t.Path,
		}
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

// checkResponseParity holds appendExtractResponse to json.Encoder on one
// response: the same bytes after whatever the buffer already held, or the
// same error and nothing appended.
func checkResponseParity(t *testing.T, resp *ceres.ExtractResponse) {
	t.Helper()
	const prefix = "kept\n"
	want, wantErr := stdlibResponse(resp)
	got, gotErr := appendExtractResponse([]byte(prefix), resp)
	switch {
	case wantErr != nil:
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%+v: error %v, encoding/json has %v", resp, gotErr, wantErr)
		}
		if string(got) != prefix {
			t.Fatalf("%+v: a refused response appended %q", resp, got[len(prefix):])
		}
	case gotErr != nil:
		t.Fatalf("%+v: error %v, encoding/json has none", resp, gotErr)
	case string(got) != prefix+string(want):
		t.Fatalf("%+v:\n appended      %q\n encoding/json %q", resp, got[len(prefix):], want)
	}
}

// responseStrings and responseFloats are the field values the response
// encoder is pinned on; they also seed FuzzExtractResponse.
var responseStrings = []string{
	"",
	"films.example",
	"<b>Tom & Jerry</b>",
	"line\u2028and\u2029paragraph separators",
	"invalid \xff\xfe utf-8 \xc3( \xe2\x82",
	"controls \x00\x01\b\f\n\r\t\x1f and \x7f",
	`quotes " and \ backslashes`,
	"Příliš žluťoučký kůň 😀",
	"/html[1]/body[1]/div[3]/ul[1]/li[2]/a[1]/text()[1]",
}

var responseFloats = []float64{
	0, math.Copysign(0, -1), 0.5, 0.9967071677138643, 1, 1e21, 1e20, 1e-6, 1e-7, -1.5e-9,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestExtractResponseParity pins the response encoder case by case and
// holds each case to json.Encoder: every string in every position, every
// float as a confidence and as the threshold, no triples (an empty array,
// not null) and many.
func TestExtractResponseParity(t *testing.T) {
	checkResponseParity(t, &ceres.ExtractResponse{})
	checkResponseParity(t, &ceres.ExtractResponse{Site: "s", Triples: []ceres.Triple{}})
	stats := ceres.ServeStats{Pages: 16, Triples: 240, RoutedClusters: 2, Latency: 2345678 * time.Nanosecond}
	for i, s := range responseStrings {
		o := responseStrings[(i+1)%len(responseStrings)]
		checkResponseParity(t, &ceres.ExtractResponse{
			Site: s, Version: i - 1, Threshold: 0.5, Stats: stats,
			Triples: []ceres.Triple{
				{Subject: s, Predicate: o, Object: s, Confidence: 0.75, Page: o, Path: s},
				{Subject: o, Predicate: s, Object: o, Confidence: 1, Page: s, Path: o},
			},
		})
	}
	for _, f := range responseFloats {
		checkResponseParity(t, &ceres.ExtractResponse{Site: "s", Threshold: f})
		checkResponseParity(t, &ceres.ExtractResponse{Site: "s", Threshold: 0.5,
			Triples: []ceres.Triple{{Subject: "a", Confidence: 0.9}, {Subject: "b", Confidence: f}}})
	}
	for _, d := range []time.Duration{0, 999, time.Microsecond, 1500 * time.Microsecond, time.Hour, -time.Millisecond, math.MaxInt64} {
		checkResponseParity(t, &ceres.ExtractResponse{Stats: ceres.ServeStats{Pages: -1, Triples: math.MaxInt, RoutedClusters: math.MinInt, Latency: d}})
	}
}

// TestExtractResponseUnencodable checks both halves of "encode before
// WriteHeader": a confidence with no JSON form is an error that leaves
// the buffer as it was, and the handler answers it with a 500 carrying an
// error body — not a 200 cut short — and serves the next request.
func TestExtractResponseUnencodable(t *testing.T) {
	got, err := appendExtractResponse([]byte("kept"), &ceres.ExtractResponse{
		Site: "s", Triples: []ceres.Triple{{Subject: "a", Confidence: 0.9}, {Subject: "b", Confidence: math.NaN()}},
	})
	if err == nil || err.Error() != "json: unsupported value: NaN" || string(got) != "kept" {
		t.Errorf("NaN confidence: appended %q, error %v; want nothing and encoding/json's error", got, err)
	}

	modelBytes, unseen := trainedModelBytes(t)
	m, err := ceres.ReadSiteModel(bytes.NewReader(modelBytes))
	if err != nil {
		t.Fatal(err)
	}
	threshold := m.Threshold()
	m.SetThreshold(math.NaN()) // echoed in the response, where it has no JSON form
	reg := ceres.NewRegistry()
	reg.PublishNext("films.example", m)
	srv := newServer(serverConfig{reg: reg})
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sites/films.example/extract", bytes.NewReader(body)))
		return rec
	}
	rec := post(extractBody(t, unseen))
	var fail errorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(fail.Error, "unsupported value: NaN") || fail.RequestID == "" {
		t.Errorf("NaN threshold: status %d, body %q; want a 500 with an error body", rec.Code, rec.Body)
	}

	// The same daemon, a request that overrides the threshold: one write
	// of a body whose length was declared.
	body, err := json.Marshal(extractRequestJSON{Pages: wirePages([]ceres.PageSource{unseen}), Threshold: &threshold})
	if err != nil {
		t.Fatal(err)
	}
	rec = post(body)
	var ok extractResponseJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil || rec.Code != http.StatusOK || len(ok.Triples) == 0 || ok.Threshold != threshold {
		t.Fatalf("explicit threshold: status %d, body %q", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a body of %d bytes", got, rec.Body.Len())
	}
}

// TestExtractResponseAllocs checks the encoder's cost model: a response
// appended into a buffer with room allocates nothing.
func TestExtractResponseAllocs(t *testing.T) {
	resp := &ceres.ExtractResponse{Site: "films.example", Version: 3, Threshold: 0.5,
		Stats: ceres.ServeStats{Pages: 16, Triples: 240, RoutedClusters: 2, Latency: 2345 * time.Microsecond}}
	for i := 0; i < 240; i++ {
		resp.Triples = append(resp.Triples, ceres.Triple{Subject: "Tom & Jerry", Predicate: "film.directedBy", Object: "x\u2028y",
			Confidence: 1 - float64(i)/1000, Page: "film01594", Path: "/html[1]/body[1]/p[1]"})
	}
	buf, err := appendExtractResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if buf, err = appendExtractResponse(buf[:0], resp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("append into a buffer with room: %v allocs, want 0", allocs)
	}
}

// FuzzExtractResponse holds the response encoder to json.Encoder over
// arbitrary strings, float bit patterns and ints: the same bytes, or an
// error exactly when encoding/json has one. The triples come in none, one
// or three so the separators and the empty array are all met.
func FuzzExtractResponse(f *testing.F) {
	for i, s := range responseStrings {
		o := responseStrings[(i+1)%len(responseStrings)]
		f.Add(s, o, s, math.Float64bits(responseFloats[i%len(responseFloats)]), math.Float64bits(0.5), i, int64(i)*1500, uint8(i))
	}
	for i, v := range responseFloats {
		f.Add("s", "p", "o", math.Float64bits(v), math.Float64bits(responseFloats[(i+1)%len(responseFloats)]), -i, int64(-i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, a, b, c string, confidence, threshold uint64, n int, latency int64, triples uint8) {
		resp := &ceres.ExtractResponse{
			Site: a, Version: n, Threshold: math.Float64frombits(threshold),
			Stats: ceres.ServeStats{Pages: n, Triples: -n, RoutedClusters: n >> 3, Latency: time.Duration(latency)},
		}
		t1 := ceres.Triple{Subject: a, Predicate: b, Object: c, Confidence: math.Float64frombits(confidence), Page: b, Path: c}
		switch triples % 3 {
		case 1:
			resp.Triples = []ceres.Triple{t1}
		case 2:
			resp.Triples = []ceres.Triple{{Subject: c, Confidence: 1, Path: a}, t1, {Object: b, Page: a}}
		}
		checkResponseParity(t, resp)
	})
}
