package jsonl

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"ceres"
)

// The encoder half of the codec: appends the bytes json.Encoder.Encode
// writes (HTML escaping on, as it is by default), and nothing else —
// FuzzAppendTriple holds the two together byte for byte.

const hexDigits = "0123456789abcdef"

// verbatim marks the ASCII bytes encoding/json copies into a string
// unescaped when it escapes HTML: from space up, other than '"', '\\',
// '<', '>' and '&'.
var verbatim = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string: the two-character escapes for
// '"', '\\' and \b \f \n \r \t; \u00XX for other control bytes and for
// '<', '>', '&'; U+2028 and U+2029 as \u2028 and \u2029; the six bytes
// \ufffd for each byte that is not UTF-8.
//
//ceres:allocfree
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if verbatim[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json formats a float64: the shortest
// digits that round-trip, in 'f' form unless the magnitude is below 1e-6
// or at least 1e21, then in 'e' form with a two-digit negative exponent's
// leading zero dropped (e-09 → e-9). NaN and the infinities have no JSON
// form: they are an error with encoding/json's message, and dst comes
// back as it was.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendTriple appends t as one JSONL line, newline included. On an
// unencodable Confidence nothing is appended.
func AppendTriple(dst []byte, t *ceres.Triple) ([]byte, error) {
	b := append(dst, `{"Subject":`...)
	b = AppendString(b, t.Subject)
	b = append(b, `,"Predicate":`...)
	b = AppendString(b, t.Predicate)
	b = append(b, `,"Object":`...)
	b = AppendString(b, t.Object)
	b = append(b, `,"Confidence":`...)
	b, err := AppendFloat(b, t.Confidence)
	if err != nil {
		return dst, err
	}
	b = append(b, `,"Page":`...)
	b = AppendString(b, t.Page)
	b = append(b, `,"Path":`...)
	b = AppendString(b, t.Path)
	return append(b, '}', '\n'), nil
}

// AppendFact appends f as one JSONL line, newline included. On an
// unencodable Belief nothing is appended.
func AppendFact(dst []byte, f *ceres.FusedFact) ([]byte, error) {
	b := append(dst, `{"Subject":`...)
	b = AppendString(b, f.Subject)
	b = append(b, `,"Predicate":`...)
	b = AppendString(b, f.Predicate)
	b = append(b, `,"Object":`...)
	b = AppendString(b, f.Object)
	b = append(b, `,"Belief":`...)
	b, err := AppendFloat(b, f.Belief)
	if err != nil {
		return dst, err
	}
	b = append(b, `,"Sources":`...)
	if f.Sources == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range f.Sources {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendString(b, s)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), nil
}
