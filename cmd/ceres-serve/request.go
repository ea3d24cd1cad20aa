package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"ceres"
)

// This file is the extract endpoint's request reader (DESIGN.md §7): the
// body is read once into a pooled buffer and walked in one pass, and
// every page's HTML is unescaped in place, so a page handed to the
// service is a sub-slice of the request buffer — no string, no copy.
//
// The grammar is the one encoding/json's Decoder applies to
//
//	{"pages":[{"id":"…","html":"…"},…],"threshold":0.9,"workers":4}
//
// and the parity rule is exact: a body is accepted here iff
// json.NewDecoder(body).Decode(&extractRequestJSON{}) accepts it, with
// the same values (FuzzExtractRequest holds the two together). In
// particular: keys match case-insensitively (bytes.EqualFold, after
// unescaping); unknown keys are skipped but their values must be valid
// JSON nested at most maxJSONDepth deep; null is a no-op for any field, a
// null page is an empty page, and a top-level null is an empty request;
// workers must be an integer literal (1.0 is refused); \uXXXX escapes,
// surrogate pairs, lone surrogates and invalid UTF-8 decode as
// encoding/json decodes them (the last two to U+FFFD); raw control bytes
// in strings are refused; bytes after the request value are ignored. The
// one documented difference is duplicate keys: here the last one wins
// outright, where encoding/json merges a repeated "pages" array into the
// previous one element by element.

const (
	// maxJSONDepth is encoding/json's nesting limit: one level deeper is
	// a syntax error there, so it is one here.
	maxJSONDepth = 10000
	// maxPooledRequestBytes caps the request buffers the pool retains (and
	// the buffer space reserved up front on a Content-Length's word):
	// larger bodies are served from a one-off buffer that is dropped, so a
	// burst of huge requests cannot pin its peak in the pool.
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
	pages     []ceres.PageBytes
	threshold *float64 // nil: absent or null
	workers   int
	open      []byte // skipValue's stack of open containers
}

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
	if cap(q.pages) > maxPooledRequestPages {
		q.pages = nil
	}
	clear(q.pages) // drop the aliases into buf and any spilled strings
	q.pages, q.threshold, q.workers = q.pages[:0], nil, 0
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

// parse decodes q.buf into pages, threshold and workers, unescaping
// strings in place.
func (q *extractRequest) parse() error {
	b := q.buf
	p := skipSpace(b, 0)
	switch {
	case p == len(b):
		return io.EOF // what the Decoder reports for an empty body
	case b[p] == '{':
		_, err := q.object(p+1, nil)
		return err
	case isNull(b, p):
		return nil
	}
	return syntaxError(p, "request is not a JSON object")
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
	p = skipSpace(b, p)
	if byteAt(b, p) == '}' {
		return p + 1, nil
	}
	for {
		if byteAt(b, p) != '"' {
			return 0, syntaxError(p, "expected an object key")
		}
		key, p2, err := q.str(p)
		if err != nil {
			return 0, err
		}
		p = skipSpace(b, p2)
		if byteAt(b, p) != ':' {
			return 0, syntaxError(p, "expected ':' after an object key")
		}
		p = skipSpace(b, p+1)
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
			p, err = q.skipValue(p, depth)
		}
		if err != nil {
			return 0, err
		}
		p = skipSpace(b, p)
		switch byteAt(b, p) {
		case ',':
			p = skipSpace(b, p+1)
		case '}':
			return p + 1, nil
		default:
			return 0, syntaxError(p, "expected ',' or '}' after an object member")
		}
	}
}

// pageArray decodes the "pages" value at b[p]: an array of page objects
// (a null element is an empty page), or null.
func (q *extractRequest) pageArray(p int) (int, error) {
	b := q.buf
	q.pages = q.pages[:0] // a repeated key replaces the earlier value
	if isNull(b, p) {
		return p + 4, nil
	}
	if byteAt(b, p) != '[' {
		return 0, syntaxError(p, "pages is not an array")
	}
	p = skipSpace(b, p+1)
	if byteAt(b, p) == ']' {
		return p + 1, nil
	}
	for {
		q.pages = append(q.pages, ceres.PageBytes{})
		switch {
		case byteAt(b, p) == '{':
			var err error
			if p, err = q.object(p+1, &q.pages[len(q.pages)-1]); err != nil {
				return 0, err
			}
		case isNull(b, p):
			p += 4
		default:
			return 0, syntaxError(p, "page is not an object")
		}
		p = skipSpace(b, p)
		switch byteAt(b, p) {
		case ',':
			p = skipSpace(b, p+1)
		case ']':
			return p + 1, nil
		default:
			return 0, syntaxError(p, "expected ',' or ']' after a page")
		}
	}
}

// stringValue decodes a string field's value at b[p]: the unescaped
// string, or nil for null (which leaves the field as it was).
func (q *extractRequest) stringValue(p int) ([]byte, int, error) {
	if byteAt(q.buf, p) == '"' {
		return q.str(p)
	}
	if isNull(q.buf, p) {
		return nil, p + 4, nil
	}
	return nil, 0, syntaxError(p, "expected a string")
}

func (q *extractRequest) thresholdValue(p int) (int, error) {
	if isNull(q.buf, p) {
		q.threshold = nil
		return p + 4, nil
	}
	end, ok := scanNumber(q.buf, p)
	if !ok {
		return 0, syntaxError(p, "threshold is not a number")
	}
	f, err := strconv.ParseFloat(string(q.buf[p:end]), 64)
	if err != nil {
		return 0, syntaxError(p, "threshold out of range")
	}
	q.threshold = &f
	return end, nil
}

func (q *extractRequest) workersValue(p int) (int, error) {
	if isNull(q.buf, p) {
		return p + 4, nil
	}
	end, ok := scanNumber(q.buf, p)
	if !ok {
		return 0, syntaxError(p, "workers is not a number")
	}
	n, err := strconv.ParseInt(string(q.buf[p:end]), 10, strconv.IntSize)
	if err != nil {
		return 0, syntaxError(p, "workers is not an integer")
	}
	q.workers = int(n)
	return end, nil
}

// plain marks the bytes a JSON string carries verbatim: ASCII from space
// up, other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str decodes the string whose opening quote is b[p], unescaping it in
// place: the result is a sub-slice of q.buf starting right after the
// quote. Unescaping only ever shrinks a string, with one exception — an
// invalid UTF-8 byte becomes the three bytes of U+FFFD — so when the
// write cursor would overtake the read cursor the string spills into an
// allocation of its own.
func (q *extractRequest) str(p int) (val []byte, next int, err error) {
	b := q.buf
	start := p + 1
	p = plainRun(b, start)
	dst, inPlace := b[start:p], true
	for p < len(b) {
		switch c := b[p]; {
		case plain[c]:
			run := p
			p = plainRun(b, p)
			dst = append(dst, b[run:p]...)
		case c == '"':
			return dst, p + 1, nil
		case c == '\\':
			var r rune
			switch byteAt(b, p+1) {
			case '"', '\\', '/':
				r = rune(b[p+1])
			case 'b':
				r = '\b'
			case 'f':
				r = '\f'
			case 'n':
				r = '\n'
			case 'r':
				r = '\r'
			case 't':
				r = '\t'
			case 'u':
				if r = hex4(b, p+2); r < 0 {
					return nil, 0, syntaxError(p, "invalid \\u escape")
				}
				p += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate takes a directly following \u low
					// surrogate with it; any other surrogate is U+FFFD and
					// what follows is decoded on its own.
					r2 := rune(-1)
					if byteAt(b, p+2) == '\\' && byteAt(b, p+3) == 'u' {
						r2 = hex4(b, p+4)
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						p += 6
					}
				}
			default:
				return nil, 0, syntaxError(p, "invalid escape")
			}
			p += 2
			dst = utf8.AppendRune(dst, r)
		case c < ' ':
			return nil, 0, syntaxError(p, "control character in string")
		default:
			r, size := utf8.DecodeRune(b[p:])
			if r == utf8.RuneError && size == 1 {
				if inPlace && start+len(dst)+len(replacement) > p+1 {
					dst, inPlace = append(make([]byte, 0, 2*len(dst)+64), dst...), false
				}
				dst = append(dst, replacement...)
			} else {
				dst = append(dst, b[p:p+size]...)
			}
			p += size
		}
	}
	return nil, 0, syntaxError(p, "unterminated string")
}

// replacement is U+FFFD as encoding/json writes it for bytes that are
// not UTF-8.
const replacement = string(unicode.ReplacementChar)

// plainRun returns the end of the run of plain bytes that starts at b[p].
func plainRun(b []byte, p int) int {
	for p < len(b) && plain[b[p]] {
		p++
	}
	return p
}

// hex4 decodes the four hex digits at b[p:], -1 if they are not there.
func hex4(b []byte, p int) rune {
	if p+4 > len(b) {
		return -1
	}
	var r rune
	for _, c := range b[p : p+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// scanString validates the string whose opening quote is b[p] without
// decoding it and returns the position after its closing quote.
func scanString(b []byte, p int) (int, error) {
	for p++; p < len(b); p++ {
		switch c := b[p]; {
		case c == '"':
			return p + 1, nil
		case c == '\\':
			switch byteAt(b, p+1) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p++
			case 'u':
				if hex4(b, p+2) < 0 {
					return 0, syntaxError(p, "invalid \\u escape")
				}
				p += 5
			default:
				return 0, syntaxError(p, "invalid escape")
			}
		case c < ' ':
			return 0, syntaxError(p, "control character in string")
		}
	}
	return 0, syntaxError(p, "unterminated string")
}

// scanNumber validates the JSON number at b[p] and returns its end.
func scanNumber(b []byte, p int) (int, bool) {
	digits := func() bool {
		start := p
		for p < len(b) && '0' <= b[p] && b[p] <= '9' {
			p++
		}
		return p > start
	}
	if byteAt(b, p) == '-' {
		p++
	}
	if byteAt(b, p) == '0' {
		p++
	} else if !digits() {
		return 0, false
	}
	if byteAt(b, p) == '.' {
		if p++; !digits() {
			return 0, false
		}
	}
	if c := byteAt(b, p); c == 'e' || c == 'E' {
		p++
		if c := byteAt(b, p); c == '+' || c == '-' {
			p++
		}
		if !digits() {
			return 0, false
		}
	}
	return p, true
}

// skipValue validates the JSON value at b[p] — the value of a key the
// request does not define — and returns the position after it. depth is
// the number of containers already open around it. Nesting is tracked on
// an explicit stack, not the goroutine's: a 10⁵-deep value costs 10⁴
// bytes of stack slice before it is refused.
func (q *extractRequest) skipValue(p, depth int) (int, error) {
	b := q.buf
	open := q.open[:0] // the kinds, '{' or '[', of the containers open inside the value
	defer func() { q.open = open[:0] }()
	for {
		var err error
		ended := true // whether a complete value ends at p after the switch
		switch c := byteAt(b, p); {
		case c == '{' || c == '[':
			if depth+len(open) == maxJSONDepth {
				return 0, syntaxError(p, "exceeded max depth")
			}
			p = skipSpace(b, p+1)
			if byteAt(b, p) == c+2 { // '}' and ']' are their openers + 2
				p++
				break
			}
			open = append(open, c)
			ended = false
			if c == '{' {
				p, err = skipKey(b, p)
			}
		case c == '"':
			p, err = scanString(b, p)
		case bytes.HasPrefix(b[p:], []byte("true")), isNull(b, p):
			p += 4
		case bytes.HasPrefix(b[p:], []byte("false")):
			p += 5
		default:
			end, ok := scanNumber(b, p)
			if !ok {
				return 0, syntaxError(p, "invalid value")
			}
			p = end
		}
		if err != nil {
			return 0, err
		}
		// A value ended: close every container it completes, or step to
		// the next value of the innermost open one.
		for ended {
			if len(open) == 0 {
				return p, nil
			}
			p = skipSpace(b, p)
			kind := open[len(open)-1]
			switch byteAt(b, p) {
			case ',':
				p = skipSpace(b, p+1)
				if kind == '{' {
					if p, err = skipKey(b, p); err != nil {
						return 0, err
					}
				}
				ended = false
			case kind + 2:
				open = open[:len(open)-1]
				p++
			default:
				return 0, syntaxError(p, "expected ',' or a closing bracket")
			}
		}
	}
}

// skipKey validates `"key" :` at b[p] and returns the value's position.
func skipKey(b []byte, p int) (int, error) {
	if byteAt(b, p) != '"' {
		return 0, syntaxError(p, "expected an object key")
	}
	p, err := scanString(b, p)
	if err != nil {
		return 0, err
	}
	p = skipSpace(b, p)
	if byteAt(b, p) != ':' {
		return 0, syntaxError(p, "expected ':' after an object key")
	}
	return skipSpace(b, p+1), nil
}

// isNull reports whether the literal null starts at b[p]. What follows
// it is the caller's to check, as after any value.
func isNull(b []byte, p int) bool { return bytes.HasPrefix(b[p:], []byte("null")) }

func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\n' || b[p] == '\t' || b[p] == '\r') {
		p++
	}
	return p
}

// byteAt is b[p], or 0 — a byte valid nowhere outside a string — past
// the end.
func byteAt(b []byte, p int) byte {
	if p < len(b) {
		return b[p]
	}
	return 0
}

func syntaxError(p int, msg string) error {
	return fmt.Errorf("offset %d: %s", p, msg)
}
