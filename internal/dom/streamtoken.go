package dom

import (
	"bytes"
	"unicode"
	"unicode/utf8"
)

// This file holds the text helpers under the lexer's two consumers:
// entity decoding, whitespace collapsing and case folding over []byte,
// without converting to string. Parse and the stream pass must agree on
// every output, so each job has exactly one implementation here.

// namedEntities is the subset of HTML named character references that
// template-generated pages commonly emit.
var namedEntities = map[string]rune{
	"amp": '&', "lt": '<', "gt": '>', "quot": '"', "apos": '\'',
	"nbsp": ' ', "copy": '©', "reg": '®', "trade": '™',
	"mdash": '—', "ndash": '–', "hellip": '…', "middot": '·', "bull": '•',
	"lsquo": '‘', "rsquo": '’', "ldquo": '“', "rdquo": '”',
	"laquo": '«', "raquo": '»', "deg": '°', "plusmn": '±', "frac12": '½',
	"eacute": 'é', "egrave": 'è', "ecirc": 'ê', "agrave": 'à', "acirc": 'â',
	"aacute": 'á', "auml": 'ä', "ouml": 'ö', "uuml": 'ü', "aring": 'å',
	"oslash": 'ø', "aelig": 'æ', "ccedil": 'ç', "ntilde": 'ñ', "iacute": 'í',
	"oacute": 'ó', "uacute": 'ú', "yacute": 'ý', "thorn": 'þ', "eth": 'ð',
	"szlig": 'ß', "times": '×', "divide": '÷', "sect": '§', "para": '¶',
	"star": '★', "starf": '★',
}

// appendDecodeEntities appends s with named and numeric character
// references resolved; unknown references are preserved literally.
//
//ceres:allocfree
func appendDecodeEntities(dst, s []byte) []byte {
	for {
		amp := bytes.IndexByte(s, '&')
		if amp < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:amp]...)
		s = s[amp:]
		r, n := decodeOneEntity(s)
		if n == 0 {
			dst = append(dst, '&')
			s = s[1:]
		} else {
			dst = utf8.AppendRune(dst, r)
			s = s[n:]
		}
	}
}

// decodeOneEntity decodes the character reference at the start of s
// (s[0] == '&'), returning the rune and the number of bytes consumed, or
// (0,0) if s does not start a valid reference.
func decodeOneEntity(s []byte) (rune, int) {
	// No reference is longer than 32 bytes; looking no further keeps a page
	// of bare '&'s from scanning to its end once for each.
	semi := bytes.IndexByte(s[:min(len(s), 33)], ';')
	if semi < 0 || semi == 1 {
		return 0, 0
	}
	body := s[1:semi]
	if body[0] == '#' {
		num := body[1:]
		hex := false
		if len(num) > 0 && (num[0] == 'x' || num[0] == 'X') {
			hex = true
			num = num[1:]
		}
		v, ok := parseEntityNum(num, hex)
		if !ok || v <= 0 || v > 0x10FFFF {
			return 0, 0
		}
		return rune(v), semi + 1
	}
	if r, ok := namedEntities[string(body)]; ok {
		return r, semi + 1
	}
	return 0, 0
}

// parseEntityNum parses a numeric character reference body the way
// strconv.ParseInt(s, base, 32) does: an optional sign, then base-10 or
// base-16 digits, bounded to 32 bits. Negative references are rejected
// outright — the caller rejects v <= 0 anyway.
//
//ceres:allocfree
func parseEntityNum(s []byte, hex bool) (int64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	if s[0] == '-' {
		return 0, false
	}
	if s[0] == '+' {
		s = s[1:]
		if len(s) == 0 {
			return 0, false
		}
	}
	var v int64
	for _, c := range s {
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case hex && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case hex && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		if hex {
			v = v*16 + d
		} else {
			v = v*10 + d
		}
		if v > 1<<31-1 {
			return 0, false
		}
	}
	return v, true
}

// appendCollapse appends src to dst with whitespace collapsed exactly as
// CollapseSpace collapses a string: leading/trailing whitespace dropped,
// internal runs (including Unicode spaces) replaced by single spaces. It
// stops and reports overflow as soon as the collapsed output would exceed
// max bytes (the full collapsed text must fit; math.MaxInt for no bound),
// without reading further: a word is walked only one byte past the room
// the output has left, so an over-long body costs the bound, not its size.
// On overflow dst holds a truncated prefix the caller must treat as
// unusable.
//
//ceres:allocfree
func appendCollapse(dst, src []byte, max int) ([]byte, bool) {
	base := len(dst)
	i := 0
	for i < len(src) {
		for i < len(src) {
			c := src[i]
			if c < utf8.RuneSelf {
				if !isASCIISpace(c) {
					break
				}
				i++
			} else {
				r, n := utf8.DecodeRune(src[i:])
				if !unicode.IsSpace(r) {
					break
				}
				i += n
			}
		}
		if i >= len(src) {
			break
		}
		// room is what the word at src[i] may measure and still fit, after
		// the space that joins it to the words before it.
		room := max - (len(dst) - base)
		if len(dst) > base {
			room--
		}
		start, limit := i, len(src)
		if room < limit-start {
			limit = start + room + 1
		}
		for i < limit {
			c := src[i]
			if c < utf8.RuneSelf {
				if isASCIISpace(c) {
					break
				}
				i++
			} else {
				r, n := utf8.DecodeRune(src[i:])
				if unicode.IsSpace(r) {
					break
				}
				i += n
			}
		}
		if i-start > room {
			return dst, true
		}
		if len(dst) > base {
			dst = append(dst, ' ')
		}
		dst = append(dst, src[start:i]...)
	}
	return dst, false
}

// appendLowerFold appends s lowercased with the same mapping
// strings.ToLower applies: ASCII fast path, unicode.ToLower for multibyte
// runes, invalid encodings replaced by utf8.RuneError.
//
//ceres:allocfree
func appendLowerFold(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
		} else {
			r, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, unicode.ToLower(r))
			i += n
		}
	}
	return dst
}

// foldEqASCII reports whether s equals lower under ASCII case folding;
// lower must already be lowercase ASCII.
//
//ceres:allocfree
func foldEqASCII(s []byte, lower string) bool {
	if len(s) != len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// eqBytesString reports whether b and s hold the same bytes.
//
//ceres:allocfree
func eqBytesString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
