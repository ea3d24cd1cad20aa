package jsonl

import (
	"bytes"
	"encoding/binary"
	"strconv"

	"ceres"
)

// internSlots sizes the decoder's string table (64 KB of string headers).
// A shard's triples draw their subjects, pages, predicates and paths from
// a few hundred distinct values — one per page or per template field —
// and objects repeat across a site's pages, so on the benchmark crawl a
// table this size leaves a replay-and-fuse at 0.65 allocations per triple
// where one string per field would be 5; doubling it again saves a
// quarter of those and no measurable time.
const internSlots = 1 << 12

// TripleDecoder decodes JSONL lines into ceres.Triple with the values
// json.Unmarshal gives: keys in any order, matched case-insensitively
// after unescaping; unknown keys skipped, their values validated; null a
// no-op, for a field or for the whole line; a repeated key overwriting
// the earlier one; strings unescaped as encoding/json unescapes them;
// Confidence any JSON number in float64 range. A line is rejected iff
// json.Unmarshal rejects it — bad syntax, bytes after the value, a value
// of the wrong type — and FuzzTripleLine holds the two together.
//
// Decoded strings never alias the line: they are copies, and copies
// shared between triples — a value seen recently is the same string
// again, not a new allocation. The zero TripleDecoder is ready to use; it
// is not safe for concurrent use.
type TripleDecoder struct {
	skip   Skipper
	intern [internSlots]string
}

// str returns b as a string, reusing the table's copy when it holds one.
func (d *TripleDecoder) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slot := &d.intern[hashBytes(b)%internSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
}

// hashBytes spreads b over the string table. It is a fixed function, not
// a seeded one, so a replay allocates the same run after run; a collision
// costs one string copy and nothing else, so it need not resist crafted
// input.
func hashBytes(b []byte) uint64 {
	const mul = 0x9E3779B97F4A7C15
	h := uint64(len(b)) * mul
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * mul
		h ^= h >> 32
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * mul
	}
	return h ^ h>>29
}

// The fields of ceres.Triple, numbered from 1 in declaration order;
// tripleFields[f-1] is field f's name.
const (
	fieldSubject = iota + 1
	fieldPredicate
	fieldObject
	fieldConfidence
	fieldPage
	fieldPath
)

var tripleFields = [...]string{"Subject", "Predicate", "Object", "Confidence", "Page", "Path"}

// tripleField says which field of ceres.Triple key names, 0 for none:
// the name as the encoder writes it (a switch, 8% of decode time faster
// than comparing down the table), else any case folding of it.
func tripleField(key []byte) int {
	switch string(key) {
	case "Subject":
		return fieldSubject
	case "Predicate":
		return fieldPredicate
	case "Object":
		return fieldObject
	case "Confidence":
		return fieldConfidence
	case "Page":
		return fieldPage
	case "Path":
		return fieldPath
	}
	for i, name := range tripleFields {
		if bytes.EqualFold(key, []byte(name)) {
			return i + 1
		}
	}
	return 0
}

// Decode decodes one line into t, which it first zeroes. It unescapes
// inside line, so line's content is spent afterwards; t keeps no
// reference to it. White space around the value is allowed, an empty
// line is not.
func (d *TripleDecoder) Decode(line []byte, t *ceres.Triple) error {
	*t = ceres.Triple{}
	b := line
	p := SkipSpace(b, 0)
	switch {
	case ByteAt(b, p) == '{':
		var err error
		if p, err = d.object(b, p+1, t); err != nil {
			return err
		}
	case IsNull(b, p):
		p += 4
	default:
		return SyntaxError(p, "triple is not a JSON object")
	}
	if p = SkipSpace(b, p); p != len(b) {
		return SyntaxError(p, "unexpected bytes after the triple")
	}
	return nil
}

// object decodes the members of the object opened just before b[p] and
// returns the position after its '}'.
func (d *TripleDecoder) object(b []byte, p int, t *ceres.Triple) (int, error) {
	p = SkipSpace(b, p)
	if ByteAt(b, p) == '}' {
		return p + 1, nil
	}
	for {
		if ByteAt(b, p) != '"' {
			return 0, SyntaxError(p, "expected an object key")
		}
		key, p2, err := String(b, p)
		if err != nil {
			return 0, err
		}
		p = SkipSpace(b, p2)
		if ByteAt(b, p) != ':' {
			return 0, SyntaxError(p, "expected ':' after an object key")
		}
		p = SkipSpace(b, p+1)
		field := tripleField(key)
		switch {
		case field == 0:
			p, err = d.skip.Value(b, p, 1)
		case IsNull(b, p):
			p += 4
		case field == fieldConfidence:
			end, ok := ScanNumber(b, p)
			if !ok {
				return 0, SyntaxError(p, "Confidence is not a number")
			}
			if t.Confidence, err = strconv.ParseFloat(string(b[p:end]), 64); err != nil {
				return 0, SyntaxError(p, "Confidence out of range")
			}
			p = end
		case ByteAt(b, p) != '"':
			return 0, SyntaxError(p, "expected a string")
		default:
			var val []byte
			if val, p, err = String(b, p); err != nil {
				return 0, err
			}
			s := d.str(val)
			switch field {
			case fieldSubject:
				t.Subject = s
			case fieldPredicate:
				t.Predicate = s
			case fieldObject:
				t.Object = s
			case fieldPage:
				t.Page = s
			case fieldPath:
				t.Path = s
			}
		}
		if err != nil {
			return 0, err
		}
		p = SkipSpace(b, p)
		switch ByteAt(b, p) {
		case ',':
			p = SkipSpace(b, p+1)
		case '}':
			return p + 1, nil
		default:
			return 0, SyntaxError(p, "expected ',' or '}' after an object member")
		}
	}
}
