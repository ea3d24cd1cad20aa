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
	"encoding/binary"
	"fmt"
	"math/bits"
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

// unescaped maps the byte after a backslash to the byte a one-byte escape
// stands for, 0 for every other byte (no escape decodes to NUL).
var unescaped = [256]byte{
	'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t',
}

const (
	lows  = 0x0101010101010101 // 0x01 in every byte of a word
	highs = 0x8080808080808080 // 0x80 in every byte of a word
)

// nonPlain flags, in the high bit of each byte of x, the bytes that are
// not plain: below 0x20, '"', '\\', or 0x80 and up. Flipping bit 1 swaps
// '"' (0x22) with the space and keeps the control bytes below it, so one
// subtraction finds both; a second finds the backslash. They borrow
// across byte lanes, so a byte above a flagged one may be flagged wrongly
// — but a borrow only ever comes out of a byte that is itself flagged, so
// zero means all eight are plain and the lowest flag is exact.
//
//ceres:allocfree
func nonPlain(x uint64) uint64 {
	return (((x ^ lows*0x02) - lows*0x21) | ((x ^ lows*'\\') - lows) | x) & highs
}

// plainRun returns the end of the run of plain bytes that starts at b[p]:
// the one "first non-plain byte" primitive, a word at a time while a word
// is left.
//
//ceres:allocfree
func plainRun(b []byte, p int) int {
	for ; p+8 <= len(b); p += 8 {
		if m := nonPlain(binary.LittleEndian.Uint64(b[p:])); m != 0 {
			return p + bits.TrailingZeros64(m)>>3
		}
	}
	for p < len(b) && plain[b[p]] {
		p++
	}
	return p
}

// String decodes the string whose opening quote is b[p], unescaping it in
// place: the result is a sub-slice of b starting right after the quote,
// and b is untouched from the closing quote on. A read cursor r and a
// write cursor w walk the string, and w never passes r: unescaping only
// ever shrinks a string, with one exception — an invalid UTF-8 byte
// becomes the three bytes of U+FFFD — so when w would overtake r the
// string spills into an allocation of its own.
//
// The loop alternates between the one thing at b[r] that is not plain and
// the plain run behind it. The one-byte escapes — all a client needs for
// HTML, one every 16 bytes of a chrome-heavy page — are a table lookup;
// the run moves a word at a time; everything else is decodeSpecial's.
//
//ceres:allocfree
func String(b []byte, p int) (val []byte, next int, err error) {
	start := p + 1
	r := plainRun(b, start) // nothing moves before the first escape
	w := r
	for r < len(b) {
		switch c := b[r]; {
		case c == '"':
			return b[start:w], r + 1, nil
		case c == '\\' && unescaped[ByteAt(b, r+1)] != 0:
			b[w] = unescaped[b[r+1]]
			r, w = r+2, w+1
		case plain[c]: // in the last bytes of b, fewer than a word
			b[w] = c
			r, w = r+1, w+1
		default:
			c, n, err := decodeSpecial(b, r)
			if err != nil {
				return nil, 0, err
			}
			if w+utf8.RuneLen(c) > r+n {
				return spillString(b, start, w, r)
			}
			w += utf8.EncodeRune(b[w:], c)
			r += n
		}
		for r+8 <= len(b) {
			x := binary.LittleEndian.Uint64(b[r:])
			m := nonPlain(x)
			if m == 0 {
				// All eight bytes are read, so the store may overlap them.
				binary.LittleEndian.PutUint64(b[w:], x)
				r, w = r+8, w+8
				continue
			}
			// Only the k bytes below the first flag are consumed. Storing
			// the whole word is still right once the cursors are 8 apart;
			// closer, its upper bytes would land on source not yet read.
			k := bits.TrailingZeros64(m) >> 3
			if r-w >= 8 {
				binary.LittleEndian.PutUint64(b[w:], x)
			} else {
				for i := 0; i < k; i++ {
					b[w+i] = b[r+i]
				}
			}
			r, w = r+k, w+k
			break
		}
	}
	return nil, 0, SyntaxError(r, "unterminated string")
}

// spillString finishes String for a string that has outgrown its source:
// b[start:w] is decoded, b[r:] is still to read, and the value moves to
// an allocation of its own.
func spillString(b []byte, start, w, r int) (val []byte, next int, err error) {
	val = append(make([]byte, 0, 2*(w-start)+64), b[start:w]...)
	for r < len(b) {
		if b[r] == '"' {
			return val, r + 1, nil
		}
		if run := plainRun(b, r); run > r {
			val = append(val, b[r:run]...)
			r = run
			continue
		}
		c, n, err := decodeSpecial(b, r)
		if err != nil {
			return nil, 0, err
		}
		val = utf8.AppendRune(val, c)
		r += n
	}
	return nil, 0, SyntaxError(r, "unterminated string")
}

// decodeSpecial decodes what stands at b[p] inside a string when that is
// neither a plain byte nor the closing quote, and returns the rune it
// stands for and the bytes it takes up: an escape, or a multi-byte rune —
// where a byte that is not UTF-8 stands for U+FFFD, as in encoding/json.
// A raw control byte or a malformed escape is an error.
func decodeSpecial(b []byte, p int) (r rune, n int, err error) {
	switch c := b[p]; {
	case c >= utf8.RuneSelf:
		r, n = utf8.DecodeRune(b[p:])
		return r, n, nil
	case c != '\\':
		return 0, 0, SyntaxError(p, "control character in string")
	}
	switch c := ByteAt(b, p+1); {
	case unescaped[c] != 0:
		return rune(unescaped[c]), 2, nil
	case c != 'u':
		return 0, 0, SyntaxError(p, "invalid escape")
	}
	if r = hex4(b, p+2); r < 0 {
		return 0, 0, SyntaxError(p, "invalid \\u escape")
	}
	if !utf16.IsSurrogate(r) {
		return r, 6, nil
	}
	// A high surrogate takes a directly following \u low surrogate with
	// it; any other surrogate is U+FFFD and what follows is decoded on its
	// own.
	r2 := rune(-1)
	if ByteAt(b, p+6) == '\\' && ByteAt(b, p+7) == 'u' {
		r2 = hex4(b, p+8)
	}
	if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
		return r, 12, nil
	}
	return r, 6, nil
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
//
//ceres:allocfree
func ScanString(b []byte, p int) (int, error) {
	for p = plainRun(b, p+1); p < len(b); p = plainRun(b, p) {
		if b[p] == '"' {
			return p + 1, nil
		}
		_, n, err := decodeSpecial(b, p)
		if err != nil {
			return 0, err
		}
		p += n
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
