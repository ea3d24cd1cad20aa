package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ceres"
)

// wrapChrome pads a page with inert site chrome — a stylesheet, a script
// and a nav link list, the bulk of a real page's bytes — up to about
// size bytes. The filler is the same for every page of a size, as on a
// real site, and is full of the quotes and newlines a JSON client must
// escape.
func wrapChrome(html string, size int) string {
	pad := size - len(html)
	if pad <= 0 {
		return html
	}
	var style, script, nav strings.Builder
	for i := 0; style.Len() < pad*2/5; i++ {
		fmt.Fprintf(&style, ".c%d{margin:%dpx;color:#%06x;font:%dpx/1.4 \"Helvetica Neue\",sans-serif}\n", i, i%32, i*7919%(1<<24), 10+i%8)
	}
	for i := 0; script.Len() < pad*2/5; i++ {
		fmt.Fprintf(&script, "function f%d(a,b){if(a<b&&b>%d){return \"<div>\"+a+\"</div>\";}return a*%d+b;}\n", i, i%100, i%1000)
	}
	nav.WriteString(`<div class="chrome-nav"><ul>`)
	for i := 0; nav.Len() < pad/5; i++ {
		fmt.Fprintf(&nav, `<li><a href="/nav/%d">Browse %d</a></li>`, i*31%10000, i+1)
	}
	nav.WriteString("</ul></div>")
	head := "<style>" + style.String() + "</style><script>" + script.String() + "</script>"
	if i := strings.Index(html, "</head>"); i >= 0 {
		html = html[:i] + head + html[i:]
	} else {
		html = head + html
	}
	if i := strings.Index(html, "<body>"); i >= 0 {
		i += len("<body>")
		html = html[:i] + nav.String() + html[i:]
	}
	return html
}

// chromeSite trains a demo site whose pages are chrome-wrapped to about
// pageBytes each and returns the model with serve pages it never saw.
func chromeSite(tb testing.TB, kind string, seed int64, train, serve, pageBytes int) (*ceres.SiteModel, []ceres.PageSource) {
	tb.Helper()
	c, err := ceres.DemoCorpus(kind, seed, train+serve)
	if err != nil {
		tb.Fatal(err)
	}
	if len(c.Pages) < train+serve {
		tb.Fatalf("corpus %s: %d pages, need %d", kind, len(c.Pages), train+serve)
	}
	pages := append([]ceres.PageSource(nil), c.Pages[:train+serve]...)
	for i := range pages {
		pages[i].HTML = wrapChrome(pages[i].HTML, pageBytes)
	}
	m, err := ceres.NewPipeline(c.KB).Train(context.Background(), pages[:train])
	if err != nil {
		tb.Fatal(err)
	}
	return m, pages[train:]
}

// wireBody encodes an extract request as a client that is not a Go
// program would send it: "<" and ">" left alone, not \u-escaped.
func wireBody(tb testing.TB, pages []ceres.PageSource) []byte {
	tb.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(extractRequestJSON{Pages: wirePages(pages)}); err != nil {
		tb.Fatal(err)
	}
	return body.Bytes()
}

// BenchmarkHandleExtract drives the daemon's root handler in process —
// request read, Service, response encode; no sockets — so request MB/s,
// pages/s, B/op and allocs/op of the wire layer are tracked without
// booting the repository benchmark. 1x4KB is the serve-small shape
// (per-request cost dominates), 16x32KB the serve-bulk shape (per-byte
// cost dominates, and pages are extracted while the body is still being
// decoded).
func BenchmarkHandleExtract(b *testing.B) {
	for _, bc := range []struct {
		name             string
		pages, pageBytes int
	}{
		{"1x4KB", 1, 4 << 10},
		{"16x32KB", 16, 32 << 10},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, serve := chromeSite(b, "imdb-films", 7, 40, bc.pages, bc.pageBytes)
			reg := ceres.NewRegistry()
			reg.PublishNext("bench.example", m)
			srv := newServer(serverConfig{reg: reg})
			body := wireBody(b, serve)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sites/bench.example/extract", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.ReportMetric(float64(bc.pages*b.N)/b.Elapsed().Seconds(), "pages/s")
		})
	}
}
