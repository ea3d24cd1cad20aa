package kb

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

func movieOntology() *Ontology {
	return NewOntology(
		Predicate{Name: "directedBy", Domain: "film", Range: "person"},
		Predicate{Name: "hasCastMember", Domain: "film", Range: "person", MultiValued: true},
		Predicate{Name: "hasGenre", Domain: "film", Range: "", MultiValued: true},
		Predicate{Name: "releaseYear", Domain: "film", Range: ""},
		Predicate{Name: "actedIn", Domain: "person", Range: "film", MultiValued: true},
	)
}

func sampleKB(t *testing.T) *KB {
	t.Helper()
	k := New(movieOntology())
	ents := []Entity{
		{ID: "f1", Type: "film", Name: "Do the Right Thing"},
		{ID: "f2", Type: "film", Name: "Crooklyn"},
		{ID: "p1", Type: "person", Name: "Spike Lee", Aliases: []string{"Lee, Spike"}},
		{ID: "p2", Type: "person", Name: "Danny Aiello"},
	}
	for _, e := range ents {
		if err := k.AddEntity(e); err != nil {
			t.Fatal(err)
		}
	}
	triples := []Triple{
		{Subject: "f1", Predicate: "directedBy", Object: EntityObject("p1")},
		{Subject: "f1", Predicate: "hasCastMember", Object: EntityObject("p1")},
		{Subject: "f1", Predicate: "hasCastMember", Object: EntityObject("p2")},
		{Subject: "f1", Predicate: "hasGenre", Object: LiteralObject("Comedy")},
		{Subject: "f1", Predicate: "hasGenre", Object: LiteralObject("Drama")},
		{Subject: "f1", Predicate: "releaseYear", Object: LiteralObject("1989")},
		{Subject: "f2", Predicate: "directedBy", Object: EntityObject("p1")},
		{Subject: "f2", Predicate: "hasGenre", Object: LiteralObject("Comedy")},
		{Subject: "p1", Predicate: "actedIn", Object: EntityObject("f1")},
	}
	for _, tr := range triples {
		if err := k.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	return k
}

func TestAddAndQuery(t *testing.T) {
	k := sampleKB(t)
	if k.NumEntities() != 4 || k.NumTriples() != 9 {
		t.Fatalf("counts: %d entities, %d triples", k.NumEntities(), k.NumTriples())
	}
	bySubject, byPred := map[string]int{}, map[string]int{}
	for _, tr := range k.Triples() {
		bySubject[tr.Subject]++
		byPred[tr.Predicate]++
	}
	if bySubject["f1"] != 6 {
		t.Errorf("triples of f1: %d, want 6", bySubject["f1"])
	}
	if byPred["hasGenre"] != 3 {
		t.Errorf("hasGenre triples: %d", byPred["hasGenre"])
	}
	e, ok := k.Entity("p1")
	if !ok || e.Name != "Spike Lee" {
		t.Errorf("Entity(p1) = %v, %v", e, ok)
	}
}

func TestAddErrors(t *testing.T) {
	k := sampleKB(t)
	if err := k.AddEntity(Entity{ID: "f1", Type: "film", Name: "dup"}); err == nil {
		t.Errorf("duplicate entity should fail")
	}
	if err := k.AddEntity(Entity{Name: "no id"}); err == nil {
		t.Errorf("empty ID should fail")
	}
	if err := k.AddTriple(Triple{Subject: "nope", Predicate: "directedBy", Object: EntityObject("p1")}); err == nil {
		t.Errorf("unknown subject should fail")
	}
	if err := k.AddTriple(Triple{Subject: "f1", Predicate: "notAPred", Object: EntityObject("p1")}); err == nil {
		t.Errorf("unknown predicate should fail")
	}
	if err := k.AddTriple(Triple{Subject: "f1", Predicate: "directedBy", Object: EntityObject("ghost")}); err == nil {
		t.Errorf("unknown object entity should fail")
	}
	if err := k.AddTriple(Triple{Subject: "f1", Predicate: "hasGenre", Object: LiteralObject("  ")}); err == nil {
		t.Errorf("empty literal should fail")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	k := sampleKB(t)
	var sb strings.Builder
	if err := k.Write(&sb); err != nil {
		t.Fatal(err)
	}
	k2, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if k2.NumEntities() != k.NumEntities() || k2.NumTriples() != k.NumTriples() {
		t.Fatalf("roundtrip counts differ: %d/%d vs %d/%d",
			k2.NumEntities(), k2.NumTriples(), k.NumEntities(), k.NumTriples())
	}
	ix := k2.BuildIndex()
	if items := ix.AppendCandidates(nil, newFieldKey("Lee, Spike")); len(items) != 1 || ix.EntityID(items[0]) != "p1" {
		t.Errorf("alias lost in roundtrip: %v", items)
	}
	var sb2 strings.Builder
	if err := k2.Write(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Errorf("serialization not stable")
	}
}

// goldenKB is the Write form of sampleKB plus an entity and a literal that
// need escapes.
const goldenKB = "P\tdirectedBy\tfilm\tperson\tsingle\nP\thasCastMember\tfilm\tperson\tmulti\nP\thasGenre\tfilm\t\tmulti\nP\treleaseYear\tfilm\t\tsingle\nP\tactedIn\tperson\tfilm\tmulti\n" +
	"E\tf1\tfilm\tDo the Right Thing\t\nE\tf2\tfilm\tCrooklyn\t\nE\tp1\tperson\tSpike Lee\tLee, Spike\nE\tp2\tperson\tDanny Aiello\t\nE\tp9\tperson\tTab\\tName\tback\\\\slash|new\\nline\n" +
	"T\tf1\tdirectedBy\te:p1\nT\tf1\thasCastMember\te:p1\nT\tf1\thasCastMember\te:p2\nT\tf1\thasGenre\tl:Comedy\nT\tf1\thasGenre\tl:Drama\nT\tf1\treleaseYear\tl:1989\n" +
	"T\tf2\tdirectedBy\te:p1\nT\tf2\thasGenre\tl:Comedy\nT\tp1\tactedIn\te:f1\nT\tf2\thasGenre\tl:a\\tb\n"

// unorderedKB reads as goldenKB does but is not the bytes Write writes:
// a comment, blank lines and CRLF endings, the entities in reverse order,
// a predicate defined as multi-valued and redefined single-valued after
// the triples that use it, and a backslash Write would escape left bare.
const unorderedKB = "# a seed KB written by hand\r\n\nP\tdirectedBy\tfilm\tperson\tmulti\r\nP\thasCastMember\tfilm\tperson\tmulti\r\nP\thasGenre\tfilm\t\tmulti\r\nP\treleaseYear\tfilm\t\tsingle\r\nP\tactedIn\tperson\tfilm\tmulti\r\n" +
	"E\tp9\tperson\tTab\\tName\tback\\slash|new\\nline\r\nE\tp2\tperson\tDanny Aiello\t\r\nE\tp1\tperson\tSpike Lee\tLee, Spike\r\n\r\nE\tf2\tfilm\tCrooklyn\t\r\nE\tf1\tfilm\tDo the Right Thing\t\r\n" +
	"T\tf1\tdirectedBy\te:p1\r\nT\tf1\thasCastMember\te:p1\r\nT\tf1\thasCastMember\te:p2\r\nT\tf1\thasGenre\tl:Comedy\r\nT\tf1\thasGenre\tl:Drama\r\nT\tf1\treleaseYear\tl:1989\r\n" +
	"# the cast\nT\tf2\tdirectedBy\te:p1\r\nT\tf2\thasGenre\tl:Comedy\r\nT\tp1\tactedIn\te:f1\r\nT\tf2\thasGenre\tl:a\\tb\r\nP\tdirectedBy\tfilm\tperson\tsingle\r\n"

// TestDigestTSV: DigestTSV gives the Digest of the KB Read builds, for
// Write's bytes and for a text in another order and layout, and refuses
// what Read refuses with Read's error.
func TestDigestTSV(t *testing.T) {
	for _, src := range []string{goldenKB, unorderedKB, "", "# nothing\n", "P\t\tt\t\tmulti\nE\te1\tt\tn\t\nT\te1\t\tl:v\n"} {
		k, err := Read(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		got, err := DigestTSV([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if got != k.Digest() {
			t.Errorf("DigestTSV(%.40q) = %s, the read KB's Digest %s", src, got, k.Digest())
		}
	}
	golden, _ := DigestTSV([]byte(goldenKB))
	unordered, _ := DigestTSV([]byte(unorderedKB))
	if golden != unordered {
		t.Error("goldenKB and unorderedKB, one KB, digest apart")
	}
	for _, src := range []string{
		"X\tweird",
		"E\tonly\ttwo",
		"T\tf1\tdirectedBy\tbogus",
		"E\te1\tt\tname\t\nT\te1\tnotInOntology\tl:v",
		"P\tp\tt\t\tmulti\nE\te1\tt\tn\t\nT\te1\tp\tl:--",
		"P\tp\tt\tt\tmulti\nE\te1\tt\tn\t\nT\te1\tp\te:e2",
		"E\te1\tt\tn\t\nE\te1\tt\tm\t",
		"\n\n" + strings.Repeat("#", maxLine),
	} {
		_, rerr := Read(strings.NewReader(src))
		_, derr := DigestTSV([]byte(src))
		if rerr == nil || derr == nil || rerr.Error() != derr.Error() {
			t.Errorf("on %.40q Read says %v, DigestTSV %v", src, rerr, derr)
		}
	}
}

// TestWriteGolden pins the serialization byte for byte — escapes, empty
// fields, record order — to what it has always been: Digest, and through
// it every stored training verdict, is a hash of these bytes.
func TestWriteGolden(t *testing.T) {
	k := sampleKB(t)
	if err := k.AddEntity(Entity{ID: "p9", Type: "person", Name: "Tab\tName", Aliases: []string{"back\\slash", "new\nline"}}); err != nil {
		t.Fatal(err)
	}
	if err := k.AddTriple(Triple{Subject: "f2", Predicate: "hasGenre", Object: LiteralObject("a\tb")}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := k.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != goldenKB {
		t.Fatalf("Write produced\n%q\nwant\n%q", sb.String(), goldenKB)
	}
}

// TestDigest holds the digest to the SHA-256 of the Write form, checks a
// KB read back from that form has the same one, and that it follows
// every mutation the way BuildIndex's cache does.
func TestDigest(t *testing.T) {
	k := sampleKB(t)
	var sb strings.Builder
	if err := k.Write(&sb); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	d := k.Digest()
	if d != hex.EncodeToString(sum[:]) || d != k.Digest() {
		t.Fatalf("Digest = %s, want the SHA-256 of the Write form %x", d, sum)
	}
	k2, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if k2.Digest() != d {
		t.Error("a KB read back from its Write form has another digest")
	}
	if err := k.AddTriple(Triple{Subject: "f2", Predicate: "releaseYear", Object: LiteralObject("1994")}); err != nil {
		t.Fatal(err)
	}
	d2 := k.Digest()
	if d2 == d {
		t.Error("adding a triple left the digest unchanged")
	}
	if err := k.AddEntity(Entity{ID: "p3", Type: "person", Name: "Ossie Davis"}); err != nil {
		t.Fatal(err)
	}
	if k.Digest() == d2 {
		t.Error("adding an entity left the digest unchanged")
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"X\tweird",
		"E\tonly\ttwo",
		"T\tf1\tdirectedBy\tbogus",
		"T\tf1\tdirectedBy",
		"P\tjust\tthree\tfields",
		"E\te1\tt\tname\t\nT\te1\tnotInOntology\tl:v",
	}
	for _, src := range bad {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) should fail", src)
		}
	}
	// Comments and blank lines are fine.
	if _, err := Read(strings.NewReader("# comment\n\n")); err != nil {
		t.Errorf("comment/blank should parse: %v", err)
	}
}

func TestEscapedFields(t *testing.T) {
	k := New(NewOntology(Predicate{Name: "p", Domain: "t", Range: ""}))
	if err := k.AddEntity(Entity{ID: "e1", Type: "t", Name: "has\ttab and\nnewline"}); err != nil {
		t.Fatal(err)
	}
	if err := k.AddTriple(Triple{Subject: "e1", Predicate: "p", Object: LiteralObject("v\\with\tboth\n")}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := k.Write(&sb); err != nil {
		t.Fatal(err)
	}
	k2, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := k2.Entity("e1")
	if e.Name != "has\ttab and\nnewline" {
		t.Errorf("escaped name lost: %q", e.Name)
	}
	tr := k2.Triples()
	if len(tr) != 1 || tr[0].Object.Literal != "v\\with\tboth\n" {
		t.Errorf("escaped literal lost: %+v", tr)
	}
}

func TestStats(t *testing.T) {
	k := sampleKB(t)
	stats := k.Stats()
	if len(stats) != 2 {
		t.Fatalf("want 2 type rows, got %d", len(stats))
	}
	byType := map[string]TypeStat{}
	for _, s := range stats {
		byType[s.Type] = s
	}
	if byType["film"].Instances != 2 || byType["film"].Predicates != 4 {
		t.Errorf("film stats = %+v", byType["film"])
	}
	if byType["person"].Instances != 2 || byType["person"].Predicates != 1 {
		t.Errorf("person stats = %+v", byType["person"])
	}
}

func TestOntologyHelpers(t *testing.T) {
	o := movieOntology()
	if o.Len() != 5 {
		t.Errorf("Len = %d", o.Len())
	}
	if !o.Has("directedBy") || o.Has("ghost") {
		t.Errorf("Has misbehaving")
	}
	names := o.Names()
	if names[0] != "directedBy" {
		t.Errorf("insertion order lost: %v", names)
	}
	p, ok := o.Predicate("hasCastMember")
	if !ok || !p.MultiValued {
		t.Errorf("hasCastMember should be multi-valued")
	}
}
