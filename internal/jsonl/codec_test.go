package jsonl

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ceres"
)

// dec is shared by every parity check, so lines are decoded against a
// string table other lines have filled — the state a replay runs in.
var dec TripleDecoder

// checkLineParity holds the decoder to json.Unmarshal on one line: same
// accept/reject, and on accept a DeepEqual triple that survives the line
// buffer being overwritten. It reports whether the line was accepted.
func checkLineParity(t *testing.T, line []byte) bool {
	t.Helper()
	var want ceres.Triple
	wantErr := json.Unmarshal(line, &want)
	buf := append([]byte(nil), line...)
	got := ceres.Triple{Subject: "stale", Predicate: "stale", Object: "stale", Confidence: -1, Page: "stale", Path: "stale"}
	gotErr := dec.Decode(buf, &got)
	for i := range buf {
		buf[i] = '#'
	}
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject differs on %.200q:\n encoding/json: %v\n decoder:       %v", line, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%.200q:\n decoded       %+v\n encoding/json %+v", line, got, want)
	}
	return wantErr == nil
}

func nested(open, close string, depth int) string {
	return strings.Repeat(open, depth) + strings.Repeat(close, depth)
}

// canonLine is a line as AppendTriple writes it, its newline removed: the
// decoder's fast path takes it.
const canonLine = `{"Subject":"Carnival of Parade","Predicate":"film.hasCastMember.person","Object":"Chiara Takahashi","Confidence":0.9967071677138643,"Page":"film00760","Path":"/html[1]/body[1]/div[1]/ul[1]/li[2]/a[1]/text()[1]"}`

// lineCases are the lines the decoder is pinned on, with whether they
// are accepted; they also seed FuzzTripleLine.
var lineCases = []struct {
	name   string
	line   string
	accept bool
}{
	{"canonical", `{"Subject":"Carnival of Parade","Predicate":"film.hasCastMember.person","Object":"Chiara Takahashi","Confidence":0.9967071677138643,"Page":"film00760","Path":"/html[1]/body[1]/div[1]/ul[1]/li[2]/a[1]/text()[1]"}` + "\n", true},
	{"reordered and spaced", " \t{ \"Path\" : \"/x\" , \"Page\":\"p\",\r\n\"Confidence\" : 5e-1 ,\"Object\":\"o\",\"Predicate\":\"p\",\"Subject\":\"s\" } \r\n", true},
	{"escapes", `{"Subject":"q\"\\\/\b\f\n\r\t","Object":"<a href=\"/x\">\n\ttab\\slash\/<\/a>"}`, true},
	{"html-safe escapes", `{"Subject":"\u003cb\u003e Tom \u0026 Jerry \u2028\u2029 \u0000 \uFFFD"}`, true},
	{"letters as escapes", `{"\u0053ubject":"\u0041\u0062c","P\u0061th":"\u002fhtml"}`, true},
	{"surrogate pair", `{"Object":"x\ud83d\ude00y\uD83D\uDE00"}`, true},
	{"lone surrogates", `{"Object":"\ud83d|\ude00|\ud83dA|\ud83d\u0041|\ud83d\ud83d\ude00|\ude00\ud83d"}`, true},
	{"high surrogate at end", `{"Object":"\ud83d"}`, true},
	{"high surrogate before bad escape", `{"Object":"\ud83d\uZZZZ"}`, false},
	{"canonical, no newline", canonLine, true},
	{"canonical, a byte after", canonLine + "x", false},
	{"canonical, a second object after", canonLine + canonLine, false},
	{"canonical, cut short", canonLine[:len(canonLine)-1], false},
	{"canonical layout, escapes", `{"Subject":"a\"b","Predicate":"p","Object":"o\u00e9\/","Confidence":0.5,"Page":"g","Path":"/x"}`, true},
	{"canonical layout, not UTF-8", "{\"Subject\":\"s\",\"Predicate\":\"p\",\"Object\":\"a\xffb\",\"Confidence\":0.5,\"Page\":\"g\",\"Path\":\"/x\xe2\x82\"}", true},
	{"canonical layout, multibyte", "{\"Subject\":\"Příliš\",\"Predicate\":\"p\",\"Object\":\"😀 \xef\xbf\xbd\",\"Confidence\":0.5,\"Page\":\"g\",\"Path\":\"/x\"}", true},
	{"canonical layout, a raw control byte", "{\"Subject\":\"s\",\"Predicate\":\"p\",\"Object\":\"a\tb\",\"Confidence\":0.5,\"Page\":\"g\",\"Path\":\"/x\"}", false},
	{"canonical layout, null Page", `{"Subject":"s","Predicate":"p","Object":"o","Confidence":0.5,"Page":null,"Path":"/x"}`, true},
	{"canonical layout, Confidence out of range", `{"Subject":"s","Predicate":"p","Object":"o","Confidence":1e999,"Page":"g","Path":"/x"}`, false},
	{"canonical layout, Confidence a string", `{"Subject":"s","Predicate":"p","Object":"o","Confidence":"0.5","Page":"g","Path":"/x"}`, false},
	{"canonical layout, a space before the end", `{"Subject":"s","Predicate":"p","Object":"o","Confidence":0.5,"Page":"g","Path":"/x" }`, true},
	{"invalid utf8", "{\"Subject\":\"\xff\",\"Object\":\"a\xffb\xc3(\xe2\x82\xf0\x9f\x98\xed\xa0\x80\xc0\xaf\"}", true},
	{"invalid utf8 outgrows the line", "{\"Object\":\"\xff\xfe\xfd\xfc\xfb\xfa\",\"Page\":\"ok\"}", true},
	{"truncated rune before the quote", "{\"Object\":\"x\xe2\x82\"}", true},
	{"valid multibyte", "{\"Subject\":\"Příliš žluťoučký kůň\",\"Object\":\"😀 \xef\xbf\xbd \xe2\x80\xa8\"}", true},
	{"raw newline in string", "{\"Object\":\"a\nb\"}", false},
	{"raw NUL in string", "{\"Object\":\"a\x00b\"}", false},
	{"raw control in key", "{\"Sub\x01ject\":\"a\"}", false},
	{"DEL is fine", "{\"Object\":\"a\x7fb\"}", true},
	{"bad escape", `{"Object":"\x41"}`, false},
	{"short unicode escape", `{"Object":"\u12"}`, false},
	{"bad escape in skipped string", `{"x":"\q","Object":"o"}`, false},
	{"unterminated string", `{"Object":"abc`, false},
	{"null fields", `{"Subject":null,"Predicate":null,"Object":null,"Confidence":null,"Page":null,"Path":null}`, true},
	{"null line", `null`, true},
	{"null line, spaced", " null\n", true},
	{"null then bytes", `null}`, false},
	{"nul", `nul`, false},
	{"empty object", `{}`, true},
	{"empty line", ``, false},
	{"blank line", " \t\r\n", false},
	{"array line", `[]`, false},
	{"string line", `"Subject"`, false},
	{"number line", `12`, false},
	{"true line", `true`, false},
	{"folded keys", `{"SUBJECT":"s","predicate":"p","oBjEcT":"o","CONFIDENCE":0.25,"page":"g","PATH":"/"}`, true},
	{"unicode-folded keys", "{\"\u017fubject\":\"s\",\"\u017fUBJECT\":\"t\"}", true},
	{"near-miss keys", `{"Subjec":"a","Subject ":"b","":"c","Pag":{"Page":"no"},"Paths":["x"]}`, true},
	{"unknown values", `{"meta":{"a":[1,2.5e+3,-0,true,false,null,"s\u00e9",{"b":[]},[[],{}]],"":{}},"Subject":"s","n":-12.5E-2}`, true},
	{"unknown bad literal", `{"x":tru,"Subject":"s"}`, false},
	{"unknown bad number", `{"x":1e,"Subject":"s"}`, false},
	{"unknown bad array", `{"x":[1,],"Subject":"s"}`, false},
	{"unknown mismatched close", `{"x":[1},"Subject":"s"}`, false},
	{"duplicate keys", `{"Subject":"a","Confidence":1,"Subject":"b","SUBJECT":"c","Confidence":2}`, true},
	{"duplicate then null", `{"Subject":"a","Subject":null,"Confidence":3,"Confidence":null}`, true},
	{"duplicate after a bad value", `{"Subject":7,"Subject":"a"}`, false},
	{"confidence forms", `{"Confidence":-1.5e-3}`, true},
	{"confidence integer", `{"Confidence":1}`, true},
	{"confidence minus zero", `{"Confidence":-0}`, true},
	{"confidence underflow", `{"Confidence":1e-999}`, true},
	{"confidence overflow", `{"Confidence":1e999}`, false},
	{"confidence string", `{"Confidence":"0.5"}`, false},
	{"confidence bad number", `{"Confidence":1.}`, false},
	{"confidence dot first", `{"Confidence":.5}`, false},
	{"confidence leading zero", `{"Confidence":01}`, false},
	{"confidence true", `{"Confidence":true}`, false},
	{"subject number", `{"Subject":7}`, false},
	{"object array", `{"Object":["x"]}`, false},
	{"page object", `{"Page":{}}`, false},
	{"path false", `{"Path":false}`, false},
	{"trailing comma", `{"Subject":"s",}`, false},
	{"leading comma", `{,"Subject":"s"}`, false},
	{"missing colon", `{"Subject" "s"}`, false},
	{"missing comma", `{"Subject":"s" "Page":"p"}`, false},
	{"unquoted key", `{Subject:"s"}`, false},
	{"literal glued to a byte", `{"Subject":nullx}`, false},
	{"unclosed object", `{"Subject":"s"`, false},
	{"trailing bytes", `{"Subject":"s"} x`, false},
	{"second value", `{"Subject":"s"}{"Subject":"t"}`, false},
	{"two lines", "{\"Subject\":\"s\"}\n{\"Subject\":\"t\"}\n", false},
	{"depth at the limit", `{"x":` + nested("[", "]", MaxDepth-1) + `}`, true},
	{"depth over the limit", `{"x":` + nested("[", "]", MaxDepth) + `}`, false},
	{"1e5 deep, unclosed", `{"x":` + strings.Repeat(`{"k":`, 100000), false},
	{"64 KB strings", `{"Subject":"` + strings.Repeat("é<", 1<<14) + `","Object":"` + strings.Repeat(`\u00e9\n`, 1<<13) + `"}`, true},
}

// TestTripleLineParity pins the decoder's grammar case by case and holds
// each case to json.Unmarshal.
func TestTripleLineParity(t *testing.T) {
	for _, tc := range lineCases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkLineParity(t, []byte(tc.line)); got != tc.accept {
				t.Errorf("accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// TestTripleLineValues checks decoded values directly, where parity alone
// would let both sides be wrong together.
func TestTripleLineValues(t *testing.T) {
	var d TripleDecoder
	var got ceres.Triple
	line := []byte(`{"ignored":[1,{"Subject":"no"}],"Path":"\/a[1]","page":"p\u00e9","Confidence":2.5e-1,"Object":"<i>\ud83d\ude00\ud800<\/i>","Predicate":"p","Subject":"first","SUBJECT":"Tom \u0026 Jerry","Predicate":null}`)
	if err := d.Decode(line, &got); err != nil {
		t.Fatal(err)
	}
	want := ceres.Triple{Subject: "Tom & Jerry", Predicate: "p", Object: "<i>😀\uFFFD</i>", Confidence: 0.25, Page: "pé", Path: "/a[1]"}
	if got != want {
		t.Errorf("decoded %+v, want %+v", got, want)
	}
	// Absent fields are zero, whatever the triple held before.
	if err := d.Decode([]byte(`{"Object":"o"}`), &got); err != nil || got != (ceres.Triple{Object: "o"}) {
		t.Errorf("decoded %+v, %v; want only Object set", got, err)
	}
}

// TestTripleDecoderSharesStrings checks the string table: a value that
// repeats across lines is one string, not one per line, and a replayed
// line allocates nothing once its values are in the table.
func TestTripleDecoderSharesStrings(t *testing.T) {
	var d TripleDecoder
	lines := []string{
		`{"Subject":"The Silent Tides","Predicate":"film.directedBy","Object":"A","Confidence":0.5,"Page":"film01594","Path":"/html[1]/body[1]/p[1]"}`,
		`{"Subject":"The Silent Tides","Predicate":"film.directedBy","Object":"B","Confidence":0.5,"Page":"film01594","Path":"/html[1]/body[1]/p[1]"}`,
	}
	var a, b ceres.Triple
	if err := d.Decode([]byte(lines[0]), &a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, len(lines[1]))
	allocs := testing.AllocsPerRun(100, func() {
		buf = append(buf[:0], lines[1]...)
		if err := d.Decode(buf, &b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding a line of known values: %v allocs, want 0", allocs)
	}
	if a.Subject != b.Subject || a.Path != b.Path || a.Object == b.Object {
		t.Fatalf("decoded %+v and %+v", a, b)
	}
}

// TestTripleDecoderConfidenceMemo checks the Confidence memo: a literal
// seen again decodes to the same bits, whether it was remembered, pushed
// out by another literal of its slot, or too long to remember; and a
// literal out of range is refused every time it is seen.
func TestTripleDecoderConfidenceMemo(t *testing.T) {
	var d TripleDecoder
	decode := func(lit string) (float64, error) {
		var got ceres.Triple
		err := d.Decode([]byte(`{"Confidence":`+lit+`}`), &got)
		return got.Confidence, err
	}
	lits := []string{"0.9876543210987654", "-0", "5e-1", "0.5", "0.0000012345678901234567", "1e400"}
	for i := 0; len(lits) < 3*confSlots; i++ {
		lits = append(lits, "0."+strconv.Itoa(i))
	}
	for round := 0; round < 2; round++ {
		for _, lit := range lits {
			want, wantErr := strconv.ParseFloat(lit, 64)
			got, err := decode(lit)
			if (err == nil) != (wantErr == nil) || (err == nil && math.Float64bits(got) != math.Float64bits(want)) {
				t.Fatalf("round %d, %s: %v, %v; want %v, %v", round, lit, got, err, want, wantErr)
			}
			slot := &d.conf[hashBytes([]byte(lit))%confSlots]
			if held := string(slot.lit[:slot.n]) == lit; held != (err == nil && len(lit) <= len(slot.lit)) {
				t.Fatalf("round %d, %s: held in its slot %v, parsed %v", round, lit, held, err == nil)
			}
		}
	}
}

// FuzzTripleLine holds the line decoder to json.Unmarshal on arbitrary
// lines: same accept/reject, same triple, no panic, no reference kept
// into the line.
func FuzzTripleLine(f *testing.F) {
	for _, tc := range lineCases {
		if len(tc.line) < 4096 { // the deep and the 64 KB cases stay in the unit test
			f.Add([]byte(tc.line))
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkLineParity(t, line)
	})
}

// stdlibLine is v as json.Encoder writes it — the format of the shard
// files and fused.jsonl.
func stdlibLine(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkAppendParity holds AppendTriple and AppendFact to json.Encoder on
// one set of field values: the same bytes after whatever the buffer
// already held, or the same error and nothing appended.
func checkAppendParity(t *testing.T, subject, predicate, object string, f float64, page, path string) {
	t.Helper()
	const prefix = "kept\n"
	check := func(what string, got []byte, gotErr error, v any) {
		t.Helper()
		want, wantErr := stdlibLine(v)
		switch {
		case wantErr != nil:
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s %+v: error %v, encoding/json has %v", what, v, gotErr, wantErr)
			}
			if string(got) != prefix {
				t.Fatalf("%s %+v: a refused value appended %q", what, v, got[len(prefix):])
			}
		case gotErr != nil:
			t.Fatalf("%s %+v: error %v, encoding/json has none", what, v, gotErr)
		case string(got) != prefix+string(want):
			t.Fatalf("%s %+v:\n appended      %q\n encoding/json %q", what, v, got[len(prefix):], want)
		}
	}
	triple := ceres.Triple{Subject: subject, Predicate: predicate, Object: object, Confidence: f, Page: page, Path: path}
	got, err := AppendTriple([]byte(prefix), &triple)
	check("triple", got, err, triple)
	if err == nil {
		// What the encoder writes, the decoder reads back.
		checkLineParity(t, got[len(prefix):])
	}
	fact := ceres.FusedFact{Subject: subject, Predicate: predicate, Object: object, Belief: f}
	switch {
	case page != "" && path != "":
		fact.Sources = []string{page, path}
	case page != "":
		fact.Sources = []string{page}
	case path != "":
		fact.Sources = []string{}
	}
	got, err = AppendFact([]byte(prefix), &fact)
	check("fact", got, err, fact)
}

// appendStrings and appendFloats are the field values the encoder is
// pinned on; they also seed FuzzAppendTriple.
var appendStrings = []string{
	"",
	"plain text",
	`quotes " and \ backslashes`,
	"<script>alert('x') && y</script>",
	"line\u2028and\u2029paragraph separators",
	"controls \x00\x01\x07\b\f\n\r\t\x1b\x1f and \x7f",
	"Příliš žluťoučký kůň 😀 \uFFFD",
	"invalid \xff\xfe utf-8 \xc3( \xe2\x82 \xf0\x9f\x98",
	"lone surrogates \xed\xa0\x80 \xed\xb0\x80",
	"truncated at the end \xe2\x82",
	"truncated at the end \xf0\x9f",
	"/html[1]/body[1]/div[3]/ul[1]/li[2]/a[1]/text()[1]",
	strings.Repeat("<é\u2028\xff\"", 8<<10), // 64 KB
}

var appendFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.9967071677138643, 0.1 + 0.2,
	1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 123456789e-20, 1e20, 1e21, 1.5e21, 1e22, 1e100, -1e-7, -1e21,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// TestAppendParity pins the encoder case by case and holds each case to
// json.Encoder.
func TestAppendParity(t *testing.T) {
	for i, s := range appendStrings {
		o := appendStrings[(i+1)%len(appendStrings)]
		checkAppendParity(t, s, o, s, 0.75, o, s)
		checkAppendParity(t, o, "p", "", 0.75, "", o)
	}
	for _, f := range appendFloats {
		checkAppendParity(t, "s", "p", "o", f, "page", "")
	}
}

// TestAppendAllocs checks the encoder's cost model: appending into a
// buffer with room allocates nothing.
func TestAppendAllocs(t *testing.T) {
	triple := ceres.Triple{Subject: "Tom & Jerry", Predicate: "film.directedBy", Object: "x\u2028y", Confidence: 1e-7, Page: "film01594", Path: "/html[1]/body[1]/p[1]"}
	fact := ceres.FusedFact{Subject: "s", Predicate: "p", Object: "o", Belief: 0.7, Sources: []string{"a.example", "b.example"}}
	buf := make([]byte, 0, 1<<10)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := AppendTriple(buf, &triple); err != nil {
			t.Fatal(err)
		}
		if _, err := AppendFact(buf, &fact); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("append into a buffer with room: %v allocs, want 0", allocs)
	}
}

// FuzzAppendTriple holds the encoder to json.Encoder over arbitrary
// strings and float bit patterns: the same bytes, or the same error.
func FuzzAppendTriple(f *testing.F) {
	for i, s := range appendStrings {
		if len(s) < 4096 { // the 64 KB case stays in the unit test
			f.Add(s, "p", appendStrings[(i+1)%len(appendStrings)], math.Float64bits(appendFloats[i%len(appendFloats)]), s, "")
		}
	}
	for _, v := range appendFloats {
		f.Add("s", "p", "o", math.Float64bits(v), "page", "/path")
	}
	f.Fuzz(func(t *testing.T, subject, predicate, object string, bits uint64, page, path string) {
		checkAppendParity(t, subject, predicate, object, math.Float64frombits(bits), page, path)
	})
}

// benchTriples is a shard's worth of triples shaped like the crawl's:
// subjects and pages repeating every few lines, a handful of predicates
// and paths, objects mostly distinct, and confidences drawn from a few
// hundred probabilities, as one site's model gives them (the benchmark
// crawl has 9,280 distinct literals in 173,467 lines).
func benchTriples(n int) []ceres.Triple {
	const confidences = 200
	out := make([]ceres.Triple, n)
	for i := range out {
		page := i * 7919 % 64
		field := i % 12
		out[i] = ceres.Triple{
			Subject:    "The Silent Tides of Film " + string(rune('A'+page%26)) + string(rune('a'+page/26)),
			Predicate:  "film.hasCastMember.person." + string(rune('a'+field)),
			Object:     "Chiara Takahashi-" + strings.Repeat(string(rune('a'+i%26)), 1+i%5) + string(rune('0'+i%10)),
			Confidence: 1 - float64(i*7919%confidences)/(3*confidences),
			Page:       "film0" + string(rune('0'+page/10)) + string(rune('0'+page%10)),
			Path:       "/html[1]/body[1]/div[1]/div[3]/ul[1]/li[" + string(rune('1'+field%9)) + "]/a[1]/text()[1]",
		}
	}
	return out
}

var benchSink []byte

// BenchmarkAppendTriple is the sink's encode cost: MB/s of JSONL written,
// and 0 allocs/op.
func BenchmarkAppendTriple(b *testing.B) {
	triples := benchTriples(1024)
	var buf []byte
	for i := range triples {
		buf, _ = AppendTriple(buf, &triples[i])
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for j := range triples {
			buf, _ = AppendTriple(buf, &triples[j])
		}
	}
	benchSink = buf
}

// BenchmarkDecodeTriple is the replay's decode cost over one shard's
// lines: MB/s of JSONL read, and the allocations the string table leaves
// (the distinct values, not one per field).
func BenchmarkDecodeTriple(b *testing.B) {
	triples := benchTriples(1024)
	var file []byte
	for i := range triples {
		file, _ = AppendTriple(file, &triples[i])
	}
	buf := make([]byte, len(file))
	out := make([]ceres.Triple, len(triples))
	var d TripleDecoder
	b.SetBytes(int64(len(file)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, file)
		rest := buf
		for j := range out {
			nl := bytes.IndexByte(rest, '\n')
			if err := d.Decode(rest[:nl], &out[j]); err != nil {
				b.Fatal(err)
			}
			rest = rest[nl+1:]
		}
	}
	b.StopTimer()
	if !reflect.DeepEqual(out, triples) {
		b.Fatal("decoded triples differ from the encoded ones")
	}
}
