package dom

import "bytes"

// This file is the package's one HTML lexer. It implements the subset of
// the HTML5 tokenization rules that template-generated pages need — tags
// with quoted and unquoted attributes, self-closing syntax, comments,
// doctype, raw-text content — over []byte, allocating nothing, and reports
// every token as offsets into the source. It knows no tag names and builds
// nothing: Parse (nodes) and StreamPage.run (records) are its two
// consumers and own every tree rule, which is what keeps the training-time
// DOM and the serve-time stream pass on the same tokens.

// lexKind enumerates what lexer.next reports.
type lexKind uint8

const (
	lexEOF lexKind = iota
	// lexText is character data with references undecoded: a run up to the
	// next '<', or a lone '<' that opens nothing and is therefore literal.
	lexText
	// lexComment spans the body of <!-- ... -->, to the end of input when
	// unterminated.
	lexComment
	// lexDoctype spans the body of <! ... >.
	lexDoctype
	// lexEndTag spans what stands between "</" and '>', as written: the
	// consumer trims and folds it.
	lexEndTag
	// lexStartTag spans the tag name as written; lexer.attrs and
	// lexer.selfClosing describe the rest of the tag.
	lexStartTag
)

// attrSpan locates one attribute of the last start tag: src[keyLo:keyHi]
// is the key as written and src[valLo:valHi] the value with its quotes
// stripped and references undecoded (empty for a bare key).
type attrSpan struct {
	keyLo, keyHi, valLo, valHi int
}

// lexer is a pull lexer over one page. attrs is reused from tag to tag, so
// a lexer kept across pages lexes without allocating.
type lexer struct {
	src         []byte
	pos         int
	attrs       []attrSpan // of the last start tag, valid until the next call
	selfClosing bool       // the last start tag ended in "/>"
}

//ceres:allocfree
func (l *lexer) reset(src []byte) {
	l.src, l.pos = src, 0
}

// next returns the token at the cursor as src[lo:hi] and moves past it.
//
//ceres:allocfree
func (l *lexer) next() (kind lexKind, lo, hi int) {
	src, pos := l.src, l.pos
	if pos >= len(src) {
		return lexEOF, pos, pos
	}
	if src[pos] != '<' {
		lo = pos
		for pos < len(src) && src[pos] != '<' {
			pos++
		}
		l.pos = pos
		return lexText, lo, pos
	}
	if pos+1 < len(src) {
		switch c := src[pos+1]; {
		case isTagNameStart(c):
			return l.startTag()
		case c == '/':
			hi, l.pos = scanPast(src, pos+2, '>')
			return lexEndTag, pos + 2, hi
		case c == '!' && pos+3 < len(src) && src[pos+2] == '-' && src[pos+3] == '-':
			lo = pos + 4
			if end := bytes.Index(src[lo:], commentClose); end >= 0 {
				l.pos = lo + end + 3
				return lexComment, lo, lo + end
			}
			l.pos = len(src)
			return lexComment, lo, len(src)
		case c == '!':
			hi, l.pos = scanPast(src, pos+2, '>')
			return lexDoctype, pos + 2, hi
		}
	}
	l.pos = pos + 1
	return lexText, pos, pos + 1
}

var commentClose = []byte("-->")

// scanPast returns the offset of the first c in src at or after lo and the
// offset past it, both len(src) without one. It is a loop and not
// bytes.IndexByte because what it scans — an end tag's name, a quoted
// value — is a few bytes long, where the call costs more than the scan.
//
//ceres:allocfree
func scanPast(src []byte, lo int, c byte) (at, past int) {
	for lo < len(src) && src[lo] != c {
		lo++
	}
	return lo, min(lo+1, len(src))
}

// startTag lexes one whole start tag at the cursor — name, every
// attribute, the closing '>' or "/>" — in a single call. A '/' outside a
// value ends the tag as self-closing wherever it stands.
//
//ceres:allocfree
func (l *lexer) startTag() (kind lexKind, lo, hi int) {
	src := l.src
	pos := l.pos + 1 // consume '<'
	lo = pos
	for pos < len(src) && isNameByte(src[pos]) {
		pos++
	}
	hi = pos
	attrs := l.attrs[:0]
	l.selfClosing = false
	for {
		pos = skipSpace(src, pos)
		if pos >= len(src) {
			break
		}
		if src[pos] == '>' {
			pos++
			break
		}
		if src[pos] == '/' {
			pos = skipSpace(src, pos+1)
			if pos < len(src) && src[pos] == '>' {
				pos++
			}
			l.selfClosing = true
			break
		}
		a := attrSpan{keyLo: pos}
		for pos < len(src) && isNameByte(src[pos]) {
			pos++
		}
		if pos == a.keyLo {
			pos++ // malformed byte; skip it to guarantee progress
			continue
		}
		a.keyHi = pos
		pos = skipSpace(src, pos)
		if pos < len(src) && src[pos] == '=' {
			pos = skipSpace(src, pos+1)
			if pos < len(src) {
				if q := src[pos]; q == '"' || q == '\'' {
					a.valLo = pos + 1
					a.valHi, pos = scanPast(src, a.valLo, q)
				} else {
					a.valLo = pos
					for pos < len(src) && !isSpaceByte(src[pos]) && src[pos] != '>' {
						pos++
					}
					a.valHi = pos
				}
			}
		}
		attrs = append(attrs, a)
	}
	l.attrs = attrs
	l.pos = pos
	return lexStartTag, lo, hi
}

// rawText lexes the content of a raw-text element (the consumer decides
// which tags are; tag is the lowercase name of the start tag just
// returned): everything up to the first "</tag", whose end tag is consumed
// with it, or to the end of input.
//
//ceres:allocfree
func (l *lexer) rawText(tag string) (lo, hi int) {
	lo = l.pos
	end := indexClosingTag(l.src[lo:], tag)
	if end < 0 {
		l.pos = len(l.src)
		return lo, l.pos
	}
	_, l.pos = scanPast(l.src, lo+end, '>')
	return lo, lo + end
}

// indexClosingTag returns the offset of the first "</tag" in s, matching
// the tag name case-insensitively (tag is already lowercase), or -1.
// Matching in place keeps a page with many <script> blocks from
// copy-lowercasing the remaining source once per block.
//
//ceres:allocfree
func indexClosingTag(s []byte, tag string) int {
	for i := 0; ; {
		j := bytes.IndexByte(s[i:], '<')
		if j < 0 {
			return -1
		}
		i += j
		if len(s)-i < 2+len(tag) {
			return -1
		}
		if s[i+1] == '/' && foldEqASCII(s[i+2:i+2+len(tag)], tag) {
			return i
		}
		i++
	}
}

func isTagNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

func isSpaceByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '\f':
		return true
	}
	return false
}

//ceres:allocfree
func skipSpace(src []byte, pos int) int {
	for pos < len(src) && isSpaceByte(src[pos]) {
		pos++
	}
	return pos
}
