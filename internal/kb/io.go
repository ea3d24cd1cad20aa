package kb

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
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
	o := NewOntology()
	k := New(o)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// Every carriage return at the end of a line goes, not only the
		// one of a CRLF ending: kept, it would be the end of the record's
		// last field, and Write's output of that field would read back
		// without it.
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		switch f[0] {
		case "P":
			if len(f) != 5 {
				return nil, fmt.Errorf("kb: line %d: P record needs 5 fields", lineNo)
			}
			o.Add(Predicate{Name: f[1], Domain: f[2], Range: f[3], MultiValued: f[4] == "multi"})
		case "E":
			if len(f) != 5 {
				return nil, fmt.Errorf("kb: line %d: E record needs 5 fields", lineNo)
			}
			var aliases []string
			if f[4] != "" {
				aliases = strings.Split(unescapeField(f[4]), "|")
			}
			if err := k.AddEntity(Entity{ID: f[1], Type: f[2], Name: unescapeField(f[3]), Aliases: aliases}); err != nil {
				return nil, fmt.Errorf("kb: line %d: %w", lineNo, err)
			}
		case "T":
			if len(f) != 4 {
				return nil, fmt.Errorf("kb: line %d: T record needs 4 fields", lineNo)
			}
			var obj Object
			switch {
			case strings.HasPrefix(f[3], "e:"):
				obj = EntityObject(f[3][2:])
			case strings.HasPrefix(f[3], "l:"):
				obj = LiteralObject(unescapeField(f[3][2:]))
			default:
				return nil, fmt.Errorf("kb: line %d: bad object %q", lineNo, f[3])
			}
			if err := k.AddTriple(Triple{Subject: f[1], Predicate: f[2], Object: obj}); err != nil {
				return nil, fmt.Errorf("kb: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("kb: line %d: unknown record type %q", lineNo, f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return k, nil
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
