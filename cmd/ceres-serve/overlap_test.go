package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ceres"
	"ceres/internal/par"
)

// decodeFirst is the extract handler as it was before pages went to the
// service while the body was still being decoded: decode the whole body,
// then serve the finished slice through ExtractBytes. It is the oracle
// TestExtractOverlapMatchesDecodeFirst and FuzzExtractHandler hold
// handleExtract to.
func (s *server) decodeFirst(w http.ResponseWriter, r *http.Request) {
	req := s.requests.get()
	defer s.requests.put(req)
	if !s.readExtract(w, r, req) {
		return
	}
	if req.err = req.parse(); req.err != nil {
		s.respondExtract(w, r, req, nil, nil)
		return
	}
	resp, err := s.svc.ExtractBytes(r.Context(), r.PathValue("site"), ceres.PageSlice(req.pages), req.options())
	s.respondExtract(w, r, req, resp, err)
}

// overlapSites is a registry serving films.example — chrome-wrapped
// imdb-films pages, trained once per test binary — and blank.example,
// which has no trained extractor, with 16 pages films.example never saw.
var overlapSites struct {
	once  sync.Once
	reg   *ceres.Registry
	pages []ceres.PageSource
}

func overlapSite(tb testing.TB) (*ceres.Registry, []ceres.PageSource) {
	tb.Helper()
	overlapSites.once.Do(func() {
		m, pages := chromeSite(tb, "imdb-films", 7, 40, 16, 4<<10)
		reg := ceres.NewRegistry()
		reg.Publish("films.example", 1, m)
		reg.Publish("blank.example", 1, &ceres.SiteModel{})
		overlapSites.reg, overlapSites.pages = reg, pages
	})
	if overlapSites.reg == nil {
		tb.Fatal("training the overlap fixture failed")
	}
	return overlapSites.reg, overlapSites.pages
}

// overlapServers returns the daemon and its decode-first oracle over one
// registry.
func overlapServers(reg *ceres.Registry) (daemon, oracle *server) {
	daemon, oracle = newServer(serverConfig{reg: reg}), newServer(serverConfig{reg: reg})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sites/{site}/extract", oracle.decodeFirst)
	oracle.mux = mux
	return daemon, oracle
}

var latencyField = regexp.MustCompile(`"latencyMs":[-+.eE0-9]+`)

// post sends body to a site's extract endpoint in process and returns the
// status and the body, with its latency — the one field no two requests
// share — set to 0.
func post(h http.Handler, site string, body []byte) (int, string) {
	r := httptest.NewRequest("POST", "/v1/sites/"+site+"/extract", bytes.NewReader(body))
	r.Header.Set("X-Request-ID", "overlap")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w.Code, latencyField.ReplaceAllString(w.Body.String(), `"latencyMs":0`)
}

// requestBody is `{"pages":[` and the pages, then tail.
func requestBody(tb testing.TB, pages []ceres.PageSource, tail string) []byte {
	tb.Helper()
	body := []byte(`{"pages":[`)
	for i, p := range pages {
		if i > 0 {
			body = append(body, ',')
		}
		b, err := json.Marshal(pageJSON{ID: p.ID, HTML: p.HTML})
		if err != nil {
			tb.Fatal(err)
		}
		body = append(body, b...)
	}
	return append(body, tail...)
}

// TestExtractOverlapMatchesDecodeFirst holds the extract handler, which
// extracts pages while it is still decoding the body, to the decode-first
// path: for each body the same status and the same response body. The
// cases are the ones where handing pages over early could show: a body
// that turns out malformed after pages went out, error precedence between
// the body and the site, an empty ID late in the body, and threshold and
// workers that follow the pages. With "workers":1 no two pages are ever
// in extraction at once, although the handler only learns it at the end.
func TestExtractOverlapMatchesDecodeFirst(t *testing.T) {
	reg, pages := overlapSite(t)
	daemon, oracle := overlapServers(reg)
	withID := func(i int, id string) []ceres.PageSource {
		p := append([]ceres.PageSource(nil), pages...)
		p[i].ID = id
		return p
	}
	cases := []struct {
		name, site string
		body       []byte
		status     int
		has        string // a substring of the response body
	}{
		{"16 pages", "films.example", requestBody(t, pages, `]}`), 200, `"pages":16`},
		{"1 page", "films.example", requestBody(t, pages[:1], `]}`), 200, `"pages":1`},
		{"no pages", "films.example", requestBody(t, nil, `]}`), 400, "no pages"},
		{"cut string after 1 page", "films.example", requestBody(t, pages[:1], `,{"id":"x","html":"<p>cut`), 400, "decoding request"},
		{"cut string after 8 pages", "films.example", requestBody(t, pages[:8], `,{"id":"x","html":"<p>cut`), 400, "decoding request"},
		{"cut string after 15 pages", "films.example", requestBody(t, pages[:15], `,{"id":"x","html":"<p>cut`), 400, "decoding request"},
		{"bad page after 8 pages", "films.example", requestBody(t, pages[:8], `,7]}`), 400, "page is not an object"},
		{"bad tail after 15 pages", "films.example", requestBody(t, pages[:15], `],"workers":1.5}`), 400, "workers is not an integer"},
		{"unknown site", "nope.example", requestBody(t, pages, `]}`), 404, "site not registered"},
		{"unknown site, malformed", "nope.example", requestBody(t, pages[:8], `,{`), 400, "decoding request"},
		{"untrained site", "blank.example", requestBody(t, pages, `]}`), 409, "no trained extractor"},
		{"untrained site, malformed", "blank.example", requestBody(t, pages[:8], `]`), 400, "decoding request"},
		{"untrained site, empty ID", "blank.example", requestBody(t, withID(3, ""), `]}`), 400, "page 3 has an empty ID"},
		{"empty ID on page 0", "films.example", requestBody(t, withID(0, ""), `]}`), 400, "page 0 has an empty ID"},
		{"empty ID on page 9", "films.example", requestBody(t, withID(9, ""), `]}`), 400, "page 9 has an empty ID"},
		{"empty ID, then malformed", "films.example", requestBody(t, withID(2, "")[:8], `,"x"]}`), 400, "decoding request"},
		{"null page 9", "films.example", requestBody(t, pages[:9], `,null]}`), 400, "page 9 has an empty ID"},
		{"threshold after pages", "films.example", requestBody(t, pages, `],"threshold":0.999}`), 200, `"threshold":0.999`},
		{"workers after pages", "films.example", requestBody(t, pages, `],"workers":3,"threshold":0}`), 200, `"threshold":0,`},
		{"workers 1 after pages", "films.example", requestBody(t, pages, `],"workers":1}`), 200, `"pages":16`},
		{"pages repeated", "films.example", append(requestBody(t, pages[:8], `],"pages":[`), requestBody(t, pages[8:], `]}`)[len(`{"pages":[`):]...), 200, `"pages":8`},
		{"pages repeated, malformed", "films.example", requestBody(t, pages[:8], `],"pages":[{]}`), 400, "decoding request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var inFlight, peak atomic.Int64
			par.OnItem = func(delta int) {
				n := inFlight.Add(int64(delta))
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
			}
			code, body := post(daemon, tc.site, tc.body)
			par.OnItem = nil
			wantCode, wantBody := post(oracle, tc.site, tc.body)
			if code != wantCode || body != wantBody {
				t.Fatalf("handler: %d %.300s\ndecode-first: %d %.300s", code, body, wantCode, wantBody)
			}
			if code != tc.status || !strings.Contains(body, tc.has) {
				t.Errorf("%d %.300s, want %d with %q", code, body, tc.status, tc.has)
			}
			if strings.Contains(tc.name, "workers 1") && peak.Load() != 1 {
				t.Errorf(`"workers":1: %d pages in extraction at once`, peak.Load())
			}
		})
	}
}

// TestExtractOnePageStartsNoHelper checks that a 1-page request takes the
// path it took before pages were handed over while decoding: extracted on
// the handler's goroutine once the body is decoded, with no worker started
// beside the decoder — where a 2-page request starts one.
func TestExtractOnePageStartsNoHelper(t *testing.T) {
	reg, pages := overlapSite(t)
	daemon, _ := overlapServers(reg)
	var helpers atomic.Int64
	par.OnHelper = func() { helpers.Add(1) }
	defer func() { par.OnHelper = nil }()
	for _, n := range []int{1, 2, 1} {
		helpers.Store(0)
		if code, body := post(daemon, "films.example", requestBody(t, pages[:n], `]}`)); code != 200 {
			t.Fatalf("%d pages: %d %s", n, code, body)
		}
		if want := int64(min(n-1, 1)); helpers.Load() != want {
			t.Errorf("%d-page request started %d helpers, want %d", n, helpers.Load(), want)
		}
	}
}

// FuzzExtractHandler holds the extract handler to the decode-first path on
// arbitrary bodies: the same status and response body, no panic. It is
// seeded with the reader's parity cases and a 16-page body cut short at
// several offsets.
func FuzzExtractHandler(f *testing.F) {
	for _, tc := range parityCases {
		if len(tc.body) < 4096 {
			f.Add([]byte(tc.body))
		}
	}
	reg, pages := overlapSite(f)
	body := requestBody(f, pages, `],"threshold":0.5}`)
	for k := 1; k <= 8; k++ {
		f.Add(body[:len(body)*k/8])
	}
	daemon, oracle := overlapServers(reg)
	f.Fuzz(func(t *testing.T, body []byte) {
		code, got := post(daemon, "films.example", body)
		wantCode, want := post(oracle, "films.example", body)
		if code != wantCode || got != want {
			t.Fatalf("on %.200q\nhandler: %d %.300s\ndecode-first: %d %.300s", body, code, got, wantCode, want)
		}
	})
}

// TestExtractOverlapConcurrent runs requests of every shape on several
// goroutines at once against one daemon, so the race detector sees
// handoffs, recycled request buffers and pooled feeds interleave; each
// answer must be the decode-first one.
func TestExtractOverlapConcurrent(t *testing.T) {
	reg, pages := overlapSite(t)
	daemon, oracle := overlapServers(reg)
	bodies := [][]byte{
		requestBody(t, pages, `]}`),
		requestBody(t, pages[:1], `]}`),
		requestBody(t, pages[:8], `,{"id":"x","html":"<p>cut`),
		requestBody(t, pages, `],"workers":1,"threshold":0.9}`),
	}
	want := make([]string, len(bodies))
	for i, b := range bodies {
		code, body := post(oracle, "films.example", b)
		want[i] = fmt.Sprint(code, body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				i := (g + k) % len(bodies)
				if code, body := post(daemon, "films.example", bodies[i]); fmt.Sprint(code, body) != want[i] {
					t.Errorf("body %d: %d %.200s, want %.200s", i, code, body, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
