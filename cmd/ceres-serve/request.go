package main

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strconv"

	"ceres"
	"ceres/internal/jsonl"
)

// This file is the extract endpoint's request reader (DESIGN.md §7): the
// body is read once into a pooled buffer and walked in one pass, and
// every page's HTML is unescaped in place, so a page handed to the
// service is a sub-slice of the request buffer — no string, no copy —
// handed over as soon as its object closes.
//
// The string, number and skip-value scanners are internal/jsonl's — the
// repo's one JSON grammar, shared with the harvest's triple decoder. The
// grammar is the one encoding/json's Decoder applies to
//
//	{"pages":[{"id":"…","html":"…"},…],"threshold":0.9,"workers":4}
//
// and the parity rule is exact: a body is accepted here iff
// json.NewDecoder(body).Decode(&extractRequestJSON{}) accepts it, with
// the same values (FuzzExtractRequest holds the two together). In
// particular: keys match case-insensitively (bytes.EqualFold, after
// unescaping); unknown keys are skipped but their values must be valid
// JSON nested at most jsonl.MaxDepth deep; null is a no-op for any field, a
// null page is an empty page, and a top-level null is an empty request;
// workers must be an integer literal (1.0 is refused); \uXXXX escapes,
// surrogate pairs, lone surrogates and invalid UTF-8 decode as
// encoding/json decodes them (the last two to U+FFFD); raw control bytes
// in strings are refused; bytes after the request value are ignored. The
// one documented difference is duplicate keys: here the last one wins
// outright, where encoding/json merges a repeated "pages" array into the
// previous one element by element.

const (
	// maxPooledRequestBytes caps the request and response buffers the pool
	// retains (and the buffer space reserved up front on a Content-Length's
	// word): larger bodies are served from a one-off buffer that is
	// dropped, so a burst of huge requests cannot pin its peak in the pool.
	maxPooledRequestBytes = 4 << 20
	// maxPooledRequestPages caps the retained page slice the same way.
	maxPooledRequestPages = 1024
)

// extractRequest is one decoded extract request. Page HTML aliases buf
// (or, for the rare string that grows when unescaped, a one-off
// allocation), so the pages are valid until the request is recycled and
// no longer.
type extractRequest struct {
	buf       []byte
	out       []byte // the response body, built here once the pages are served
	pages     []ceres.PageBytes
	threshold *float64 // nil: absent or null
	workers   int
	skip      jsonl.Skipper // for the values of keys the request does not define

	// While Feed runs, yield is where each page goes as its object closes.
	// A "pages" key repeated once pages have gone out sets repeated: the
	// later array replaces the earlier one, so none of it goes out.
	yield    func(ceres.PageBytes)
	yielded  int
	repeated bool
	err      error // the decode error Feed met
}

// errPagesRepeated is what Feed returns for a well-formed body whose
// "pages" key repeats after pages went out: those pages are not the
// request's, which the handler then serves from req.pages.
var errPagesRepeated = errors.New("a repeated \"pages\" key replaced pages already served")

// requestPool recycles extractRequests, and with them the request
// buffers. It is a fixed-size free list, not a sync.Pool: a sync.Pool
// keeps up to one entry per P and GC generation, which for ~0.5 MB bulk
// bodies on an idle-but-for-one-client daemon showed as three buffers
// live where one was in use. The list holds at most one request per CPU
// (more could not run at once), each at most maxPooledRequestBytes.
type requestPool chan *extractRequest

func newRequestPool() requestPool { return make(requestPool, runtime.GOMAXPROCS(0)) }

func (rp requestPool) get() *extractRequest {
	select {
	case q := <-rp:
		return q
	default:
		return new(extractRequest)
	}
}

// put recycles a request. The caller must be done with every page: the
// next request overwrites their bytes.
func (rp requestPool) put(q *extractRequest) {
	if cap(q.buf) > maxPooledRequestBytes {
		q.buf = nil
	}
	if cap(q.out) > maxPooledRequestBytes {
		q.out = nil
	}
	if cap(q.pages) > maxPooledRequestPages {
		q.pages = nil
	}
	clear(q.pages) // drop the aliases into buf and any spilled strings
	q.pages, q.threshold, q.workers = q.pages[:0], nil, 0
	q.yield, q.yielded, q.repeated, q.err = nil, 0, false, nil
	select {
	case rp <- q:
	default:
	}
}

// readFrom reads the whole body into q.buf, sized from the request's
// Content-Length (-1 when unknown) so a well-formed request is read
// without regrowing. The size limit is r's: the handler passes an
// http.MaxBytesReader.
func (q *extractRequest) readFrom(r io.Reader, contentLength int64) error {
	buf := q.buf[:0]
	// One spare byte lets the final Read report io.EOF without a regrow;
	// with no length declared, start where io.ReadAll starts.
	if want := max(min(contentLength, maxPooledRequestBytes)+1, 512); want > int64(cap(buf)) {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			q.buf = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// Feed decodes the body as the service's page feed (ceres.PageFeed):
// each page is yielded as its object closes, so extraction starts while
// the rest of the body is still being decoded, and threshold and workers
// are set in opts once the body ends — wherever they sit in it.
func (q *extractRequest) Feed(yield func(ceres.PageBytes), opts *ceres.RequestOptions) error {
	q.yield = yield
	q.err = q.parse()
	q.yield = nil
	*opts = q.options()
	if q.err == nil && q.repeated {
		return errPagesRepeated
	}
	return q.err
}

// options are the request's threshold and workers.
func (q *extractRequest) options() ceres.RequestOptions {
	return ceres.RequestOptions{Threshold: q.threshold, Workers: q.workers}
}

// parse decodes q.buf into pages, threshold and workers, unescaping
// strings in place.
func (q *extractRequest) parse() error {
	b := q.buf
	p := jsonl.SkipSpace(b, 0)
	switch {
	case p == len(b):
		return io.EOF // what the Decoder reports for an empty body
	case b[p] == '{':
		_, err := q.object(p+1, nil)
		return err
	case jsonl.IsNull(b, p):
		return nil
	}
	return jsonl.SyntaxError(p, "request is not a JSON object")
}

// object decodes the members of the object opened just before b[p] and
// returns the position after its '}'. With page nil it is the request
// object, else one page object.
func (q *extractRequest) object(p int, page *ceres.PageBytes) (int, error) {
	b := q.buf
	depth := 1
	if page != nil {
		depth = 3 // request object, pages array, page object
	}
	p = jsonl.SkipSpace(b, p)
	if jsonl.ByteAt(b, p) == '}' {
		return p + 1, nil
	}
	for {
		if jsonl.ByteAt(b, p) != '"' {
			return 0, jsonl.SyntaxError(p, "expected an object key")
		}
		key, p2, err := jsonl.String(q.buf, p)
		if err != nil {
			return 0, err
		}
		p = jsonl.SkipSpace(b, p2)
		if jsonl.ByteAt(b, p) != ':' {
			return 0, jsonl.SyntaxError(p, "expected ':' after an object key")
		}
		p = jsonl.SkipSpace(b, p+1)
		switch {
		case page == nil && bytes.EqualFold(key, []byte("pages")):
			p, err = q.pageArray(p)
		case page == nil && bytes.EqualFold(key, []byte("threshold")):
			p, err = q.thresholdValue(p)
		case page == nil && bytes.EqualFold(key, []byte("workers")):
			p, err = q.workersValue(p)
		case page != nil && bytes.EqualFold(key, []byte("id")):
			var id []byte
			if id, p, err = q.stringValue(p); id != nil {
				page.ID = string(id)
			}
		case page != nil && bytes.EqualFold(key, []byte("html")):
			var html []byte
			if html, p, err = q.stringValue(p); html != nil {
				page.HTML = html
			}
		default:
			p, err = q.skip.Value(q.buf, p, depth)
		}
		if err != nil {
			return 0, err
		}
		p = jsonl.SkipSpace(b, p)
		switch jsonl.ByteAt(b, p) {
		case ',':
			p = jsonl.SkipSpace(b, p+1)
		case '}':
			return p + 1, nil
		default:
			return 0, jsonl.SyntaxError(p, "expected ',' or '}' after an object member")
		}
	}
}

// pageArray decodes the "pages" value at b[p]: an array of page objects
// (a null element is an empty page), or null.
func (q *extractRequest) pageArray(p int) (int, error) {
	b := q.buf
	q.pages = q.pages[:0] // a repeated key replaces the earlier value
	q.repeated = q.yielded > 0
	if jsonl.IsNull(b, p) {
		return p + 4, nil
	}
	if jsonl.ByteAt(b, p) != '[' {
		return 0, jsonl.SyntaxError(p, "pages is not an array")
	}
	p = jsonl.SkipSpace(b, p+1)
	if jsonl.ByteAt(b, p) == ']' {
		return p + 1, nil
	}
	for {
		q.pages = append(q.pages, ceres.PageBytes{})
		switch {
		case jsonl.ByteAt(b, p) == '{':
			var err error
			if p, err = q.object(p+1, &q.pages[len(q.pages)-1]); err != nil {
				return 0, err
			}
		case jsonl.IsNull(b, p):
			p += 4
		default:
			return 0, jsonl.SyntaxError(p, "page is not an object")
		}
		if q.yield != nil && !q.repeated {
			q.yield(q.pages[len(q.pages)-1])
			q.yielded++
		}
		p = jsonl.SkipSpace(b, p)
		switch jsonl.ByteAt(b, p) {
		case ',':
			p = jsonl.SkipSpace(b, p+1)
		case ']':
			return p + 1, nil
		default:
			return 0, jsonl.SyntaxError(p, "expected ',' or ']' after a page")
		}
	}
}

// stringValue decodes a string field's value at b[p]: the unescaped
// string, or nil for null (which leaves the field as it was).
func (q *extractRequest) stringValue(p int) ([]byte, int, error) {
	if jsonl.ByteAt(q.buf, p) == '"' {
		return jsonl.String(q.buf, p)
	}
	if jsonl.IsNull(q.buf, p) {
		return nil, p + 4, nil
	}
	return nil, 0, jsonl.SyntaxError(p, "expected a string")
}

func (q *extractRequest) thresholdValue(p int) (int, error) {
	if jsonl.IsNull(q.buf, p) {
		q.threshold = nil
		return p + 4, nil
	}
	end, ok := jsonl.ScanNumber(q.buf, p)
	if !ok {
		return 0, jsonl.SyntaxError(p, "threshold is not a number")
	}
	f, err := strconv.ParseFloat(string(q.buf[p:end]), 64)
	if err != nil {
		return 0, jsonl.SyntaxError(p, "threshold out of range")
	}
	q.threshold = &f
	return end, nil
}

func (q *extractRequest) workersValue(p int) (int, error) {
	if jsonl.IsNull(q.buf, p) {
		return p + 4, nil
	}
	end, ok := jsonl.ScanNumber(q.buf, p)
	if !ok {
		return 0, jsonl.SyntaxError(p, "workers is not a number")
	}
	n, err := strconv.ParseInt(string(q.buf[p:end]), 10, strconv.IntSize)
	if err != nil {
		return 0, jsonl.SyntaxError(p, "workers is not an integer")
	}
	q.workers = int(n)
	return end, nil
}
