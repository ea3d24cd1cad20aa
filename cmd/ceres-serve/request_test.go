package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"ceres"
	"ceres/internal/jsonl"
)

// pageJSON and extractRequestJSON are the extract request as
// encoding/json sees it: the reference shape the request reader must
// agree with, and what the tests marshal request bodies from.
type pageJSON struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

type extractRequestJSON struct {
	Pages []pageJSON `json:"pages"`
	// Threshold overrides the model's confidence cutoff for this request
	// (absent = model threshold; an explicit 0 keeps everything).
	Threshold *float64 `json:"threshold,omitempty"`
	// Workers bounds the request's page parallelism (absent = default).
	Workers int `json:"workers,omitempty"`
}

func wirePages(pages []ceres.PageSource) []pageJSON {
	out := make([]pageJSON, len(pages))
	for i, p := range pages {
		out[i] = pageJSON{ID: p.ID, HTML: p.HTML}
	}
	return out
}

// readRequest runs body through the request reader exactly as the
// handler does. The body is copied first: parsing unescapes in place.
func readRequest(body []byte) (*extractRequest, error) {
	q := new(extractRequest)
	if err := q.readFrom(bytes.NewReader(body), int64(len(body))); err != nil {
		return nil, err
	}
	if !bytes.Equal(q.buf, body) {
		return nil, errors.New("readFrom did not return the body")
	}
	return q, q.parse()
}

// hasDuplicateKeys reports whether any object of the body's first JSON
// value repeats a key — counting keys that fold to the same request
// field as repeats. Those are the bodies on which the reader (last key
// wins) and encoding/json (a repeated array merges into the earlier one)
// are documented to differ in value.
func hasDuplicateKeys(body []byte) bool {
	type frame struct {
		keys    map[string]bool // nil for an array
		wantKey bool
	}
	canonical := func(key string) string {
		for _, name := range []string{"pages", "threshold", "workers", "id", "html"} {
			if strings.EqualFold(key, name) {
				return name
			}
		}
		return key
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		switch d, _ := tok.(json.Delim); {
		case d == '{':
			stack = append(stack, frame{keys: map[string]bool{}, wantKey: true})
			continue
		case d == '[':
			stack = append(stack, frame{})
			continue
		case d == '}' || d == ']':
			stack = stack[:top]
			top--
		case top >= 0 && stack[top].wantKey:
			key := canonical(tok.(string))
			if stack[top].keys[key] {
				return true
			}
			stack[top].keys[key] = true
			stack[top].wantKey = false
			continue
		}
		// A value ended.
		if top < 0 {
			return false
		}
		stack[top].wantKey = stack[top].keys != nil
	}
}

// checkParity holds the request reader to encoding/json on one body:
// same accept/reject, and on accept the same pages, threshold and
// workers. It reports whether the body was accepted.
func checkParity(t *testing.T, body []byte) bool {
	t.Helper()
	var want extractRequestJSON
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	got, gotErr := readRequest(body)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject differs on %.200q:\n encoding/json: %v\n reader:        %v", body, wantErr, gotErr)
	}
	if wantErr != nil || hasDuplicateKeys(body) {
		return wantErr == nil
	}
	if len(got.pages) != len(want.Pages) {
		t.Fatalf("%.200q: %d pages, encoding/json has %d", body, len(got.pages), len(want.Pages))
	}
	for i, p := range want.Pages {
		if got.pages[i].ID != p.ID || string(got.pages[i].HTML) != p.HTML {
			t.Fatalf("%.200q: page %d = {%q %q}, encoding/json has {%q %q}", body, i, got.pages[i].ID, got.pages[i].HTML, p.ID, p.HTML)
		}
	}
	switch {
	case (got.threshold == nil) != (want.Threshold == nil):
		t.Fatalf("%.200q: threshold %v, encoding/json has %v", body, got.threshold, want.Threshold)
	case got.threshold != nil && *got.threshold != *want.Threshold:
		t.Fatalf("%.200q: threshold %v, encoding/json has %v", body, *got.threshold, *want.Threshold)
	}
	if got.workers != want.Workers {
		t.Fatalf("%.200q: workers %d, encoding/json has %d", body, got.workers, want.Workers)
	}
	return true
}

func nested(open, close string, depth int) string {
	return strings.Repeat(open, depth) + strings.Repeat(close, depth)
}

// parityCases are the request bodies the reader is pinned on, with
// whether they are accepted; they also seed FuzzExtractRequest.
var parityCases = []struct {
	name   string
	body   string
	accept bool
}{
	{"plain", `{"pages":[{"id":"p1","html":"<html><body>hi</body></html>"}],"threshold":0.9,"workers":4}`, true},
	{"spaced", " \t\r\n{ \"pages\" : [ { \"id\" : \"a\" , \"html\" : \"x\" } , { \"html\" : \"y\" , \"id\" : \"b\" } ] , \"workers\" : 2 } \n", true},
	{"escapes", `{"pages":[{"id":"q\"\\\/\b\f\n\r\t","html":"<a href=\"/x\">\n\ttab\\slash\/<\/a>"}]}`, true},
	{"unicode escapes", `{"pages":[{"id":"é☃","html":"\u003cp\u003e \u00e9 \u2603 \u0000 \uFFFD"}]}`, true},
	{"surrogate pair", `{"pages":[{"id":"a","html":"x\ud83d\ude00y\uD83D\uDE00"}]}`, true},
	{"lone surrogates", `{"pages":[{"id":"a","html":"\ud83d|\ude00|\ud83dA|\ud83d\u0041|\ud83d\ud83d\ude00|\ude00\ud83d"}]}`, true},
	{"high surrogate at end", `{"pages":[{"id":"a","html":"\ud83d"}]}`, true},
	{"high surrogate before bad escape", `{"pages":[{"id":"a","html":"\ud83d\uZZZZ"}]}`, false},
	{"invalid utf8", "{\"pages\":[{\"id\":\"\xff\",\"html\":\"a\xffb\xc3(\xe2\x82\xf0\x9f\x98\xed\xa0\x80\xc0\xaf\"}]}", true},
	{"invalid utf8 outgrows the input", "{\"pages\":[{\"id\":\"a\",\"html\":\"\xff\xfe\xfd\xfc\xfb\xfa\"},{\"id\":\"b\",\"html\":\"ok\"}]}", true},
	{"invalid utf8 after an escape", "{\"pages\":[{\"id\":\"a\",\"html\":\"\\u00e9\xff\\n\xff\xff\xff\xff tail\"}]}", true},
	{"valid multibyte", "{\"pages\":[{\"id\":\"ž\",\"html\":\"Příliš žluťoučký kůň \\\"úpěl\\\" ďábelské ódy 😀 \xef\xbf\xbd\"}]}", true},
	{"truncated rune before the quote", "{\"pages\":[{\"id\":\"a\",\"html\":\"x\xe2\x82\"}]}", true},
	{"raw newline in string", "{\"pages\":[{\"id\":\"a\",\"html\":\"a\nb\"}]}", false},
	{"raw NUL in string", "{\"pages\":[{\"id\":\"a\",\"html\":\"a\x00b\"}]}", false},
	{"raw control in key", "{\"pa\x01ges\":[]}", false},
	{"DEL is fine", "{\"pages\":[{\"id\":\"a\",\"html\":\"a\x7fb\"}]}", true},
	{"bad escape", `{"pages":[{"id":"a","html":"\x41"}]}`, false},
	{"single-quote escape", `{"pages":[{"id":"a","html":"\'"}]}`, false},
	{"short unicode escape", `{"pages":[{"id":"a","html":"\u12"}]}`, false},
	{"bad escape in skipped string", `{"x":"\q","pages":[]}`, false},
	{"unterminated string", `{"pages":[{"id":"a","html":"abc`, false},
	{"null fields", `{"pages":[{"id":null,"html":null},null,{"id":"c","html":"z"}],"threshold":null,"workers":null}`, true},
	{"null pages", `{"pages":null,"threshold":0}`, true},
	{"top-level null", `null`, true},
	{"top-level null then bytes", "null}{", true},
	{"top-level nul", `nul`, false},
	{"top-level array", `[]`, false},
	{"top-level string", `"pages"`, false},
	{"top-level number", `12`, false},
	{"top-level true", `true`, false},
	{"empty body", ``, false},
	{"blank body", " \n ", false},
	{"empty object", `{}`, true},
	{"no pages key", `{"threshold":0.5}`, true},
	{"folded keys", `{"PAGES":[{"ID":"a","Html":"x"}],"Threshold":0.25,"WORKERS":3}`, true},
	{"unicode-folded keys", "{\"pageſ\":[{\"id\":\"a\",\"html\":\"x\"}],\"wor\u212aers\":7,\"thre\u017fhold\":1}", true},
	{"escaped keys", `{"p\u0061ges":[{"\u0069d":"a","ht\u006dl":"x"}]}`, true},
	{"near-miss keys", `{"page":[1],"pages ":2,"":3,"idx":{"id":"no"}}`, true},
	{"workers float", `{"workers":1.0}`, false},
	{"workers exponent", `{"workers":1e2}`, false},
	{"workers negative", `{"workers":-3}`, true},
	{"workers minus zero", `{"workers":-0}`, true},
	{"workers overflow", `{"workers":9223372036854775808}`, false},
	{"workers max", `{"workers":9223372036854775807}`, true},
	{"workers string", `{"workers":"2"}`, false},
	{"workers leading zero", `{"workers":01}`, false},
	{"workers bare minus", `{"workers":-}`, false},
	{"threshold forms", `{"threshold":-1.5e-3}`, true},
	{"threshold overflow", `{"threshold":1e999}`, false},
	{"threshold underflow", `{"threshold":1e-999}`, true},
	{"threshold string", `{"threshold":"0.5"}`, false},
	{"threshold bad number", `{"threshold":1.}`, false},
	{"threshold dot first", `{"threshold":.5}`, false},
	{"threshold true", `{"threshold":true}`, false},
	{"pages object", `{"pages":{}}`, false},
	{"pages string", `{"pages":"x"}`, false},
	{"page number", `{"pages":[1]}`, false},
	{"page array", `{"pages":[[]]}`, false},
	{"id number", `{"pages":[{"id":7}]}`, false},
	{"html array", `{"pages":[{"html":["x"]}]}`, false},
	{"trailing comma in object", `{"workers":1,}`, false},
	{"trailing comma in pages", `{"pages":[{"id":"a"},]}`, false},
	{"leading comma", `{,"workers":1}`, false},
	{"missing colon", `{"workers" 1}`, false},
	{"missing comma", `{"workers":1 "threshold":2}`, false},
	{"unquoted key", `{workers:1}`, false},
	{"literal glued to a byte", `{"pages":[{"id":nullx}]}`, false},
	{"unclosed object", `{"pages":[]`, false},
	{"unclosed page", `{"pages":[{"id":"a"`, false},
	{"trailing bytes", `{"pages":[{"id":"a","html":"x"}]} trailing } ] "`, true},
	{"second value", `{"workers":1}{"workers":2}`, true},
	{"unknown values", `{"meta":{"a":[1,2.5e+3,-0,true,false,null,"s\u00e9",{"b":[]},[[],{}]],"":{}},"pages":[{"id":"a","html":"x","extra":[{"deep":[1,[2,[3]]]}]}],"n":-12.5E-2}`, true},
	{"unknown bad literal", `{"x":tru,"pages":[]}`, false},
	{"unknown bad number", `{"x":1e,"pages":[]}`, false},
	{"unknown bad array", `{"x":[1,],"pages":[]}`, false},
	{"unknown bad object", `{"x":{"a":1,},"pages":[]}`, false},
	{"unknown mismatched close", `{"x":[1},"pages":[]}`, false},
	{"unknown unclosed", `{"x":[[1]`, false},
	{"duplicate keys", `{"pages":[{"id":"a","html":"x","id":"b"}],"workers":1,"pages":[{"id":"c"}],"WORKERS":2}`, true},
	{"duplicate after a bad value", `{"workers":"x","workers":1}`, false},
	{"depth at the limit, top level", `{"x":` + nested("[", "]", jsonl.MaxDepth-1) + `}`, true},
	{"depth over the limit, top level", `{"x":` + nested("[", "]", jsonl.MaxDepth) + `}`, false},
	{"depth at the limit, in a page", `{"pages":[{"x":` + strings.Repeat(`{"k":`, jsonl.MaxDepth-4) + `[]` + strings.Repeat("}", jsonl.MaxDepth-4) + `}]}`, true},
	{"depth over the limit, in a page", `{"pages":[{"x":` + strings.Repeat(`{"k":`, jsonl.MaxDepth-3) + `[]` + strings.Repeat("}", jsonl.MaxDepth-3) + `}]}`, false},
	{"1e5 deep arrays", `{"x":` + nested("[", "]", 100000) + `,"pages":[]}`, false},
	{"1e5 deep objects, unclosed", `{"pages":[{"x":` + strings.Repeat(`{"k":`, 100000), false},
}

// TestExtractRequestParity pins the reader's grammar case by case and
// holds each case to encoding/json.
func TestExtractRequestParity(t *testing.T) {
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkParity(t, []byte(tc.body)); got != tc.accept {
				t.Errorf("accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// TestExtractRequestValues checks decoded values directly, where parity
// alone would let both sides be wrong together, and the documented
// last-wins rule for duplicate keys.
func TestExtractRequestValues(t *testing.T) {
	q, err := readRequest([]byte(`{"pages":[{"id":"a","html":"<p class=\"x\">\u00e9\n\ud83d\ude00\ud800</p>"},null],"threshold":0,"workers":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.pages) != 2 || q.pages[0].ID != "a" || string(q.pages[0].HTML) != "<p class=\"x\">é\n😀\uFFFD</p>" ||
		q.pages[1].ID != "" || q.pages[1].HTML != nil {
		t.Errorf("pages = %q", q.pages)
	}
	if q.threshold == nil || *q.threshold != 0 || q.workers != 3 {
		t.Errorf("threshold %v workers %d, want an explicit 0 and 3", q.threshold, q.workers)
	}

	q, err = readRequest([]byte(`{"pages":[{"id":"a","html":"x"},{"id":"b"}],"workers":1,"pages":[{"id":"c","id":"d"}],"WORKERS":2,"threshold":1,"threshold":null}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.pages) != 1 || q.pages[0].ID != "d" || q.pages[0].HTML != nil || q.workers != 2 || q.threshold != nil {
		t.Errorf("duplicate keys: pages %q workers %d threshold %v, want the last of each", q.pages, q.workers, q.threshold)
	}
}

// TestExtractRequestAliasesBuffer checks the zero-copy contract: page
// HTML is a window of the request buffer — except a string that invalid
// UTF-8 makes longer than its source, which moves out rather than
// overrun the bytes still to be read.
func TestExtractRequestAliasesBuffer(t *testing.T) {
	q, err := readRequest([]byte("{\"pages\":[{\"id\":\"a\",\"html\":\"plain <b>text</b>\"},{\"id\":\"b\",\"html\":\"esc\\\"aped\\u00e9 \xff\"},{\"id\":\"c\",\"html\":\"\xff\xff grows\"}]}"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"plain <b>text</b>", "esc\"apedé \uFFFD", "\uFFFD\uFFFD grows"}
	for i, w := range want {
		if string(q.pages[i].HTML) != w {
			t.Errorf("page %d decoded %q, want %q", i, q.pages[i].HTML, w)
		}
	}
	// Scribbling over the buffer shows through exactly the pages that
	// alias it.
	for i := range q.buf {
		q.buf[i] = '#'
	}
	for i, alias := range []bool{true, true, false} {
		if got := string(q.pages[i].HTML) != want[i]; got != alias {
			t.Errorf("page %d aliases the buffer = %v, want %v", i, got, alias)
		}
	}
}

// TestExtractRequestReadLimit checks the body limit surfaces as the
// error the handler maps to 413, with or without a Content-Length, and
// that a declared length the body outgrows still reads whole.
func TestExtractRequestReadLimit(t *testing.T) {
	body := []byte(`{"pages":[{"id":"a","html":"` + strings.Repeat("x", 4096) + `"}]}`)
	for _, contentLength := range []int64{-1, int64(len(body)), 10} {
		q := new(extractRequest)
		err := q.readFrom(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), 100), contentLength)
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			t.Errorf("content length %d: over-limit read error = %v, want *http.MaxBytesError", contentLength, err)
		}
		q = new(extractRequest)
		if err := q.readFrom(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(len(body))), contentLength); err != nil || !bytes.Equal(q.buf, body) {
			t.Errorf("content length %d: at-limit read = %d bytes, %v", contentLength, len(q.buf), err)
		}
	}
}

// TestRequestPoolCaps checks that a request which outgrew the pool caps
// sheds its buffer and page slice when recycled, that a recycled request
// keeps no page, and that the pool never holds more than its size.
func TestRequestPoolCaps(t *testing.T) {
	rp := make(requestPool, 1)
	rp.put(&extractRequest{buf: make([]byte, 0, maxPooledRequestBytes+1), pages: make([]ceres.PageBytes, 3, maxPooledRequestPages+1)})
	if q := rp.get(); q.buf != nil || q.pages != nil {
		t.Errorf("oversized request kept cap(buf)=%d cap(pages)=%d", cap(q.buf), cap(q.pages))
	}
	th := 0.5
	rp.put(&extractRequest{buf: make([]byte, 10, 64), pages: []ceres.PageBytes{{ID: "a", HTML: []byte("x")}}, threshold: &th, workers: 3})
	rp.put(&extractRequest{buf: make([]byte, 0, 128)}) // the pool is full: dropped
	q := rp.get()
	if cap(q.buf) != 64 || len(q.pages) != 0 || q.pages[:1][0].ID != "" || q.pages[:1][0].HTML != nil || q.threshold != nil || q.workers != 0 {
		t.Errorf("recycled request: cap(buf)=%d pages=%v threshold=%v workers=%d", cap(q.buf), q.pages[:1], q.threshold, q.workers)
	}
	if q := rp.get(); cap(q.buf) != 0 {
		t.Errorf("pool of one held a second request (cap(buf)=%d)", cap(q.buf))
	}
}

// FuzzExtractRequest holds the request reader to encoding/json on
// arbitrary bodies: same accept/reject, same values, no panic.
func FuzzExtractRequest(f *testing.F) {
	for _, tc := range parityCases {
		if len(tc.body) < 4096 { // the deep-nesting cases stay in the unit test
			f.Add([]byte(tc.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParity(t, body)
	})
}
