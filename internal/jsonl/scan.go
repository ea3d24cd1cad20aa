// Package jsonl is the repo's one hand-written JSON grammar and, built on
// it, the codec of the harvest's triple plane (DESIGN.md §7, §8).
//
// scan.go is the grammar: string, number and skip-value scanners over a
// byte buffer, each holding to what encoding/json accepts. It has two
// users — cmd/ceres-serve's extract-request reader and the triple line
// decoder in this package — and both unescape strings in place, so a
// decoded string is a window of the buffer it was read from.
//
// encode.go and triple.go are the codec: an append-style encoder whose
// bytes are those of json.Encoder for ceres.Triple and ceres.FusedFact,
// and a line decoder whose values are those of json.Unmarshal. The shard
// files and fused.jsonl are read by other tools and compared byte for
// byte across runs, which is why the format is encoding/json's, exactly,
// and encoding/json itself is the oracle the tests and fuzz targets hold
// the codec to.
package jsonl

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit: one level deeper is a
// syntax error there, so it is one here.
const MaxDepth = 10000

// plain marks the bytes a JSON string carries verbatim: ASCII from space
// up, other than '"' and '\\'.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// replacement is U+FFFD as encoding/json writes it for bytes that are
// not UTF-8.
const replacement = string(unicode.ReplacementChar)

// String decodes the string whose opening quote is b[p], unescaping it in
// place: the result is a sub-slice of b starting right after the quote.
// Unescaping only ever shrinks a string, with one exception — an invalid
// UTF-8 byte becomes the three bytes of U+FFFD — so when the write cursor
// would overtake the read cursor the string spills into an allocation of
// its own.
func String(b []byte, p int) (val []byte, next int, err error) {
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
			switch ByteAt(b, p+1) {
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
					return nil, 0, SyntaxError(p, "invalid \\u escape")
				}
				p += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate takes a directly following \u low
					// surrogate with it; any other surrogate is U+FFFD and
					// what follows is decoded on its own.
					r2 := rune(-1)
					if ByteAt(b, p+2) == '\\' && ByteAt(b, p+3) == 'u' {
						r2 = hex4(b, p+4)
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						p += 6
					}
				}
			default:
				return nil, 0, SyntaxError(p, "invalid escape")
			}
			p += 2
			dst = utf8.AppendRune(dst, r)
		case c < ' ':
			return nil, 0, SyntaxError(p, "control character in string")
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
	return nil, 0, SyntaxError(p, "unterminated string")
}

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

// ScanString validates the string whose opening quote is b[p] without
// decoding it and returns the position after its closing quote.
func ScanString(b []byte, p int) (int, error) {
	for p++; p < len(b); p++ {
		switch c := b[p]; {
		case c == '"':
			return p + 1, nil
		case c == '\\':
			switch ByteAt(b, p+1) {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				p++
			case 'u':
				if hex4(b, p+2) < 0 {
					return 0, SyntaxError(p, "invalid \\u escape")
				}
				p += 5
			default:
				return 0, SyntaxError(p, "invalid escape")
			}
		case c < ' ':
			return 0, SyntaxError(p, "control character in string")
		}
	}
	return 0, SyntaxError(p, "unterminated string")
}

// ScanNumber validates the JSON number at b[p] and returns its end.
func ScanNumber(b []byte, p int) (int, bool) {
	digits := func() bool {
		start := p
		for p < len(b) && '0' <= b[p] && b[p] <= '9' {
			p++
		}
		return p > start
	}
	if ByteAt(b, p) == '-' {
		p++
	}
	if ByteAt(b, p) == '0' {
		p++
	} else if !digits() {
		return 0, false
	}
	if ByteAt(b, p) == '.' {
		if p++; !digits() {
			return 0, false
		}
	}
	if c := ByteAt(b, p); c == 'e' || c == 'E' {
		p++
		if c := ByteAt(b, p); c == '+' || c == '-' {
			p++
		}
		if !digits() {
			return 0, false
		}
	}
	return p, true
}

// Skipper validates and steps over values nobody decodes — the values of
// keys a reader does not define. It keeps the stack of open containers
// between calls, so skipping allocates only when a value nests deeper
// than any before it.
type Skipper struct {
	open []byte
}

// Value validates the JSON value at b[p] and returns the position after
// it. depth is the number of containers already open around it. Nesting
// is tracked on an explicit stack, not the goroutine's: a 10⁵-deep value
// costs 10⁴ bytes of stack slice before it is refused.
func (s *Skipper) Value(b []byte, p, depth int) (int, error) {
	open := s.open[:0] // the kinds, '{' or '[', of the containers open inside the value
	defer func() { s.open = open[:0] }()
	for {
		var err error
		ended := true // whether a complete value ends at p after the switch
		switch c := ByteAt(b, p); {
		case c == '{' || c == '[':
			if depth+len(open) == MaxDepth {
				return 0, SyntaxError(p, "exceeded max depth")
			}
			p = SkipSpace(b, p+1)
			if ByteAt(b, p) == c+2 { // '}' and ']' are their openers + 2
				p++
				break
			}
			open = append(open, c)
			ended = false
			if c == '{' {
				p, err = skipKey(b, p)
			}
		case c == '"':
			p, err = ScanString(b, p)
		case bytes.HasPrefix(b[p:], []byte("true")), IsNull(b, p):
			p += 4
		case bytes.HasPrefix(b[p:], []byte("false")):
			p += 5
		default:
			end, ok := ScanNumber(b, p)
			if !ok {
				return 0, SyntaxError(p, "invalid value")
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
			p = SkipSpace(b, p)
			kind := open[len(open)-1]
			switch ByteAt(b, p) {
			case ',':
				p = SkipSpace(b, p+1)
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
				return 0, SyntaxError(p, "expected ',' or a closing bracket")
			}
		}
	}
}

// skipKey validates `"key" :` at b[p] and returns the value's position.
func skipKey(b []byte, p int) (int, error) {
	if ByteAt(b, p) != '"' {
		return 0, SyntaxError(p, "expected an object key")
	}
	p, err := ScanString(b, p)
	if err != nil {
		return 0, err
	}
	p = SkipSpace(b, p)
	if ByteAt(b, p) != ':' {
		return 0, SyntaxError(p, "expected ':' after an object key")
	}
	return SkipSpace(b, p+1), nil
}

// IsNull reports whether the literal null starts at b[p]. What follows
// it is the caller's to check, as after any value.
func IsNull(b []byte, p int) bool { return bytes.HasPrefix(b[p:], []byte("null")) }

// SkipSpace returns the position of the first byte at or after b[p] that
// is not JSON white space.
func SkipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\n' || b[p] == '\t' || b[p] == '\r') {
		p++
	}
	return p
}

// ByteAt is b[p], or 0 — a byte valid nowhere outside a string — past
// the end.
func ByteAt(b []byte, p int) byte {
	if p < len(b) {
		return b[p]
	}
	return 0
}

// SyntaxError is the error every scanner here reports: what is wrong and
// the byte offset it is wrong at.
func SyntaxError(p int, msg string) error {
	return fmt.Errorf("offset %d: %s", p, msg)
}
