// Package strmatch implements the string normalization and fuzzy matching
// primitives CERES uses to align knowledge-base entity names with text
// fields on webpages (paper §3.1.1, following the content-redundancy
// matcher of Gulhane et al., PVLDB 2010).
//
// The package is dependency-free and deterministic. All matching is done on
// normalized forms: Unicode-lowercased, accent-folded (for the Latin-1
// supplement and Latin Extended-A ranges that cover the paper's seven
// languages), punctuation-stripped, whitespace-collapsed.
package strmatch

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// foldRune maps accented Latin letters onto their ASCII base letter. It
// covers Latin-1 Supplement and Latin Extended-A, which is sufficient for
// the Czech, Danish, Icelandic, Italian, Indonesian and Slovak site content
// the CommonCrawl experiment simulates.
func foldRune(r rune) rune {
	switch {
	case r >= 'à' && r <= 'å', r >= 'À' && r <= 'Å', r == 'ā', r == 'ă', r == 'ą':
		return 'a'
	case r == 'ç', r == 'Ç', r == 'ć', r == 'č', r == 'ĉ', r == 'ċ':
		return 'c'
	case r == 'ď', r == 'đ', r == 'ð', r == 'Ð':
		return 'd'
	case r >= 'è' && r <= 'ë', r >= 'È' && r <= 'Ë', r == 'ē', r == 'ĕ', r == 'ė', r == 'ę', r == 'ě':
		return 'e'
	case r == 'ĝ', r == 'ğ', r == 'ġ', r == 'ģ':
		return 'g'
	case r == 'ĥ', r == 'ħ':
		return 'h'
	case r >= 'ì' && r <= 'ï', r >= 'Ì' && r <= 'Ï', r == 'ĩ', r == 'ī', r == 'ĭ', r == 'į', r == 'ı':
		return 'i'
	case r == 'ĵ':
		return 'j'
	case r == 'ķ':
		return 'k'
	case r == 'ĺ', r == 'ļ', r == 'ľ', r == 'ŀ', r == 'ł':
		return 'l'
	case r == 'ñ', r == 'Ñ', r == 'ń', r == 'ņ', r == 'ň':
		return 'n'
	case r >= 'ò' && r <= 'ö', r >= 'Ò' && r <= 'Ö', r == 'ø', r == 'Ø', r == 'ō', r == 'ŏ', r == 'ő':
		return 'o'
	case r == 'ŕ', r == 'ŗ', r == 'ř':
		return 'r'
	case r == 'ś', r == 'ŝ', r == 'ş', r == 'š':
		return 's'
	case r == 'ţ', r == 'ť', r == 'ŧ', r == 'þ', r == 'Þ':
		return 't'
	case r >= 'ù' && r <= 'ü', r >= 'Ù' && r <= 'Ü', r == 'ũ', r == 'ū', r == 'ŭ', r == 'ů', r == 'ű', r == 'ų':
		return 'u'
	case r == 'ŵ':
		return 'w'
	case r == 'ý', r == 'ÿ', r == 'Ý', r == 'ŷ':
		return 'y'
	case r == 'ź', r == 'ż', r == 'ž':
		return 'z'
	case r == 'æ', r == 'Æ':
		return 'a' // "ae" collapses to its head letter; see Normalize.
	case r == 'œ', r == 'Œ':
		return 'o'
	case r == 'ß':
		return 's'
	}
	return r
}

// Normalize canonicalizes a string for matching: lowercase, accent-fold,
// replace punctuation with spaces, collapse runs of whitespace, and trim.
// Normalize is idempotent: Normalize(Normalize(s)) == Normalize(s).
func Normalize(s string) string {
	var buf [96]byte
	return string(NormalizeInto(buf[:0], s))
}

// NormalizeInto appends the normalized form of s (as Normalize would return
// it) to dst and returns the extended slice. It allocates only when dst's
// capacity is exceeded, so callers that reuse a scratch buffer normalize
// with zero allocations.
func NormalizeInto(dst []byte, s string) []byte {
	start := len(dst)
	lastSpace := true // suppress leading spaces
	for i := 0; i < len(s); {
		// ASCII bytes — the overwhelming share of harvest text — skip
		// the rune decode and the Unicode tables: foldRune is identity
		// below 0x80 and case/class checks are two comparisons.
		if c := s[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
				dst = append(dst, c)
				lastSpace = false
			case 'A' <= c && c <= 'Z':
				dst = append(dst, c+('a'-'A'))
				lastSpace = false
			default:
				if !lastSpace {
					dst = append(dst, ' ')
					lastSpace = true
				}
			}
			continue
		}
		r, sz := utf8.DecodeRuneInString(s[i:])
		i += sz
		r = unicode.ToLower(r)
		r = foldRune(r)
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			dst = utf8.AppendRune(dst, r)
			lastSpace = false
		default:
			if !lastSpace {
				dst = append(dst, ' ')
				lastSpace = true
			}
		}
	}
	// Runs of space collapse as they are written, so at most one trailing
	// space needs trimming — but only one this call appended.
	if n := len(dst); n > start && dst[n-1] == ' ' {
		dst = dst[:n-1]
	}
	return dst
}

// TokenSetKey returns a canonical key for token-order-insensitive matching:
// the sorted, deduplicated tokens of the normalized string joined by spaces.
// "Lee, Spike" and "Spike Lee" share a TokenSetKey.
func TokenSetKey(s string) string {
	return TokenSetKeyNormalized(Normalize(s))
}

// TokenSetKeyNormalized is TokenSetKey for an already-normalized string,
// skipping the re-normalization pass. When the normalized form is a single
// token, or its tokens are already sorted and unique, the input string is
// returned as-is with no allocation.
func TokenSetKeyNormalized(n string) string {
	if strings.IndexByte(n, ' ') < 0 {
		return n // zero or one token: already canonical
	}
	var buf [96]byte
	out := AppendTokenSetKey(buf[:0], n)
	if string(out) == n {
		return n
	}
	return string(out)
}

// AppendTokenSetKey appends the token-set key of an already-normalized
// string (single-space-separated tokens, no leading/trailing space) to dst
// and returns the extended slice. Index builders use it to precompute token
// keys without per-name allocation; tokens are tracked as boundary pairs so
// the input never escapes to the heap.
func AppendTokenSetKey(dst []byte, n string) []byte {
	if n == "" {
		return dst
	}
	var arr [16][2]int32
	toks := arr[:0]
	for start, rest := 0, n; ; {
		i := strings.IndexByte(rest, ' ')
		if i < 0 {
			toks = append(toks, [2]int32{int32(start), int32(start + len(rest))})
			break
		}
		toks = append(toks, [2]int32{int32(start), int32(start + i)})
		start += i + 1
		rest = rest[i+1:]
	}
	tok := func(b [2]int32) string { return n[b[0]:b[1]] }
	// Insertion sort: token lists are short (entity names).
	for i := 1; i < len(toks); i++ {
		for j := i; j > 0 && tok(toks[j]) < tok(toks[j-1]); j-- {
			toks[j], toks[j-1] = toks[j-1], toks[j]
		}
	}
	first := true
	for i, b := range toks {
		if i > 0 && tok(b) == tok(toks[i-1]) {
			continue // dedup
		}
		if !first {
			dst = append(dst, ' ')
		}
		first = false
		dst = append(dst, tok(b)...)
	}
	return dst
}
