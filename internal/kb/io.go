package kb

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strings"
	"unsafe"
)

// The on-disk format is line-oriented TSV, one record per line:
//
//	E <tab> id <tab> type <tab> name <tab> alias1|alias2|...
//	T <tab> subject <tab> predicate <tab> e:<entityID> | l:<literal>
//	P <tab> name <tab> domain <tab> range <tab> multi|single
//
// Predicates must precede triples that use them; entities must precede
// triples that reference them.

// Write serializes the KB (ontology, entities, triples) to w.
func (k *KB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	line := func(fields ...string) {
		for i, f := range fields {
			if i > 0 {
				bw.WriteByte('\t')
			}
			bw.WriteString(f)
		}
		bw.WriteByte('\n')
	}
	for _, name := range k.ontology.Names() {
		p, _ := k.ontology.Predicate(name)
		card := "single"
		if p.MultiValued {
			card = "multi"
		}
		line("P", p.Name, p.Domain, p.Range, card)
	}
	for _, id := range k.EntityIDs() {
		e := k.entities[id]
		line("E", e.ID, e.Type, escapeField(e.Name), escapeField(strings.Join(e.Aliases, "|")))
	}
	for _, t := range k.triples {
		if t.Object.IsEntity() {
			line("T", t.Subject, t.Predicate, "e:"+t.Object.EntityID)
		} else {
			line("T", t.Subject, t.Predicate, "l:"+escapeField(t.Object.Literal))
		}
	}
	return bw.Flush()
}

// Digest identifies the KB's contents: the SHA-256, in hex, of the bytes
// Write produces. It is computed on first use and cached until the next
// AddEntity/AddTriple, exactly as BuildIndex's index is, and is safe to
// call concurrently under the same rules.
func (k *KB) Digest() string {
	k.idxMu.Lock()
	defer k.idxMu.Unlock()
	if k.digest == "" {
		h := sha256.New()
		k.Write(h) // a hash.Hash never fails a write
		k.digest = hex.EncodeToString(h.Sum(nil))
	}
	return k.digest
}

// Read parses the serialization produced by Write into a fresh KB.
func Read(r io.Reader) (*KB, error) {
	var text strings.Builder
	_, rerr := io.Copy(&text, r)
	o := NewOntology()
	k := New(o)
	err := scanRecords(text.String(), func(_ int, _ string, f []string) error {
		switch f[0] {
		case "P":
			o.Add(Predicate{Name: f[1], Domain: f[2], Range: f[3], MultiValued: f[4] == "multi"})
		case "E":
			var aliases []string
			if f[4] != "" {
				aliases = strings.Split(unescapeField(f[4]), "|")
			}
			return k.AddEntity(Entity{ID: f[1], Type: f[2], Name: unescapeField(f[3]), Aliases: aliases})
		default:
			return k.AddTriple(Triple{Subject: f[1], Predicate: f[2], Object: tsvObject(f[3])})
		}
		return nil
	})
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	return k, nil
}

// DigestTSV is what Read(bytes.NewReader(text)) and then Digest give,
// without building the KB: it accepts and refuses what Read does, with
// Read's error, and for text Read accepts returns the SHA-256, in hex, of
// the bytes Write would write for the KB Read would build. It reads the
// records once and keeps the entity IDs, for Read's checks, and where the
// E and T records' lines lie in the text, to hash once the ontology,
// which Write writes first, is complete.
func DigestTSV(text []byte) (string, error) {
	// Every line below is a substring of src, and none outlives the call.
	src := unsafe.String(unsafe.SliceData(text), len(text))
	escapes := strings.IndexByte(src, '\\') >= 0
	o := NewOntology()
	type entity struct {
		id, line string
		at       int
	}
	var (
		ents    []entity
		triples = lines{src: src, to: -1}
		ids     = make(map[string]struct{})
		// A kb.tsv lists an entity's triples together, often each beside
		// its inverse, so the last two entities found answer most lookups;
		// predicates are few, and a slot each answers most of theirs.
		recent [2]string
		preds  [32]string
	)
	hasEntity := func(id string) bool {
		if id != "" && (id == recent[0] || id == recent[1]) {
			return true
		}
		_, ok := ids[id]
		if ok {
			recent[0], recent[1] = id, recent[0]
		}
		return ok
	}
	hasPred := func(name string) bool {
		if name == "" {
			return o.Has(name)
		}
		slot := &preds[(7*len(name)+int(name[len(name)/2]))%len(preds)]
		if name == *slot {
			return true
		}
		ok := o.Has(name)
		if ok {
			*slot = name
		}
		return ok
	}
	err := scanRecords(src, func(at int, line string, f []string) error {
		switch f[0] {
		case "P":
			o.Add(Predicate{Name: f[1], Domain: f[2], Range: f[3], MultiValued: f[4] == "multi"})
		case "E":
			if err := checkEntity(f[1], hasEntity); err != nil {
				return err
			}
			ids[f[1]] = struct{}{}
			if escapes {
				line, at = tsvLine(line, at, f)
			}
			ents = append(ents, entity{f[1], line, at})
		default:
			if err := checkTriple(hasPred, hasEntity, Triple{Subject: f[1], Predicate: f[2], Object: tsvObject(f[3])}); err != nil {
				return err
			}
			if escapes {
				line, at = tsvLine(line, at, f)
			}
			triples.add(line, at)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	byID := func(a, b entity) int { return strings.Compare(a.id, b.id) }
	if !slices.IsSortedFunc(ents, byID) {
		slices.SortFunc(ents, byID)
	}
	entLines := lines{src: src, to: -1}
	for _, e := range ents {
		entLines.add(e.line, e.at)
	}

	h := sha256.New()
	w := bufio.NewWriterSize(h, 64<<10)
	for _, name := range o.order {
		p := o.preds[name]
		card := "single"
		if p.MultiValued {
			card = "multi"
		}
		for _, f := range []string{"P\t", p.Name, "\t", p.Domain, "\t", p.Range, "\t", card, "\n"} {
			w.WriteString(f)
		}
	}
	for _, l := range [][]string{entLines.list, triples.list} {
		for _, run := range l {
			w.WriteString(run)
			w.WriteByte('\n')
		}
	}
	w.Flush() // a hash.Hash never fails a write
	return hex.EncodeToString(h.Sum(nil)), nil
}

// lines gathers the lines of Write's output in the order Write writes
// them, each either a line of src — a kb.tsv's text — or one built
// afresh, and joins a line of src that follows the previous one in src
// into one run with it: a kb.tsv Write wrote is a few runs.
type lines struct {
	src  string
	list []string
	// The last of list is src[from:to]; to is -1 when it is not of src.
	from, to int
}

// add appends line, which starts at src[at] when at is not -1.
func (l *lines) add(line string, at int) {
	if at >= 0 && l.to >= 0 && at == l.to+1 {
		l.to = at + len(line)
		l.list[len(l.list)-1] = l.src[l.from:l.to]
		return
	}
	l.list = append(l.list, line)
	l.from, l.to = at, -1
	if at >= 0 {
		l.to = at + len(line)
	}
}

// tsvLine is the line Write writes for the E or T record f, read from
// line: line itself, and at, when it holds no backslash, and otherwise
// line with each escaped field — an entity's name and aliases, a literal
// object — read and written again, and -1: the line is not of the text.
func tsvLine(line string, at int, f []string) (string, int) {
	if strings.IndexByte(line, '\\') < 0 {
		return line, at
	}
	f = slices.Clone(f)
	switch {
	case f[0] == "E":
		f[3], f[4] = escapeField(unescapeField(f[3])), escapeField(unescapeField(f[4]))
	case strings.HasPrefix(f[3], "l:"):
		f[3] = "l:" + escapeField(unescapeField(f[3][2:]))
	}
	return strings.Join(f, "\t"), -1
}

// tsvObject is the object a T record's last field names.
func tsvObject(f string) Object {
	if strings.HasPrefix(f, "e:") {
		return EntityObject(f[2:])
	}
	return LiteralObject(unescapeField(f[2:]))
}

// maxLine bounds a kb.tsv line: one of maxLine bytes or more, its newline
// not counted, is bufio.ErrTooLong, as a bufio.Scanner of that maximum
// token size reports it.
const maxLine = 4 << 20

// scanRecords is the one reader of kb.tsv's syntax, under Read and
// DigestTSV alike. It calls fn on every record of text in file order with
// where the record's line starts in text, the line, every carriage return
// ending it removed, and its fields split at tabs, type first, still
// escaped as on disk. It skips blank and comment lines and refuses a line
// of unknown record type, of the wrong number of fields for its type, or
// — a T record — whose object is neither e: nor l:. Its errors and fn's
// name the line.
func scanRecords(text string, fn func(at int, line string, f []string) error) error {
	var fields [5]string
	for lineNo, at, next := 1, 0, 0; at < len(text); lineNo, at = lineNo+1, next {
		line := text[at:]
		next = len(text)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, next = line[:i], at+i+1
		}
		if len(line) >= maxLine {
			return bufio.ErrTooLong
		}
		// Every carriage return at the end of a line goes, not only the
		// one of a CRLF ending: kept, it would be the end of the record's
		// last field, and Write's output of that field would read back
		// without it.
		line = strings.TrimRight(line, "\r")
		if line == "" || line[0] == '#' {
			continue
		}
		kind, rest, more := strings.Cut(line, "\t")
		n := 5
		switch kind {
		case "P", "E":
		case "T":
			n = 4
		default:
			return fmt.Errorf("kb: line %d: unknown record type %q", lineNo, kind)
		}
		f := append(fields[:0], kind)
		for more && len(f) < n-1 {
			var field string
			field, rest, more = strings.Cut(rest, "\t")
			f = append(f, field)
		}
		if !more || strings.IndexByte(rest, '\t') >= 0 {
			return fmt.Errorf("kb: line %d: %s record needs %d fields", lineNo, kind, n)
		}
		f = append(f, rest)
		if kind == "T" && !strings.HasPrefix(rest, "e:") && !strings.HasPrefix(rest, "l:") {
			return fmt.Errorf("kb: line %d: bad object %q", lineNo, rest)
		}
		if err := fn(at, line, f); err != nil {
			return fmt.Errorf("kb: line %d: %w", lineNo, err)
		}
	}
	return nil
}

func escapeField(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	s = strings.ReplaceAll(s, "\t", `\t`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func unescapeField(s string) string {
	if !strings.Contains(s, "\\") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 == len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case '\\':
			b.WriteByte('\\')
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
