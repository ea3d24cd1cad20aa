package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestStringEveryAlignment holds String to encoding/json with every
// special class at every position of a word: after 0‥23 plain bytes, with
// 0‥8 bytes between it and the end of the buffer (so it is met by the
// word loop, by its last word and by the bytewise tail), and with the
// write cursor level with the read cursor, fewer than eight bytes behind
// it and more. Value, accept/reject and end position are the Decoder's,
// and the buffer is untouched from the closing quote on — the walk of a
// request or a line resumes there.
func TestStringEveryAlignment(t *testing.T) {
	specials := []struct{ name, s string }{
		{"closing quote", ``}, // nothing between the plain run and the quote
		{`\"`, `\"`}, {`\\`, `\\`}, {`\/`, `\/`}, {`\b`, `\b`}, {`\f`, `\f`}, {`\n`, `\n`}, {`\r`, `\r`}, {`\t`, `\t`},
		{`\u ascii`, `\u0041`}, {`\u 2 bytes`, `\u00e9`}, {`\u 3 bytes`, `\u2603`}, {`\u NUL`, `\u0000`},
		{"surrogate pair", `\ud83d\ude00`}, {"lone high surrogate", `\ud83d`}, {"lone low surrogate", `\ude00`},
		{"high surrogate then rune", `\ud83d\u0041`},
		{"bad escape", `\q`}, {"short \\u", `\u12`}, {"bad hex", `\u12g4`},
		{"raw control", "\x1f"}, {"raw newline", "\n"}, {"raw NUL", "\x00"},
		{"DEL", "\x7f"},
		{"2-byte rune", "é"}, {"3-byte rune", "☃"}, {"4-byte rune", "😀"},
		{"invalid byte", "\xff"}, {"truncated rune", "\xe2\x82"}, {"surrogate in UTF-8", "\xed\xa0\x80"},
		{"invalid run", "\xff\xfe\xfd\xfc"},
	}
	// What precedes the plain run sets how far the write cursor trails:
	// 0, 1, 2 and 9 bytes. An invalid byte needs two bytes of slack to
	// become U+FFFD in place, so the first two force the spill.
	prefixes := []string{``, `\n`, `\n\t`, strings.Repeat(`\n`, 9)}
	const plainBytes = "abcdefghijklmnopqrstuvwx"
	const trailing = `,"k":[1]}`
	for _, sp := range specials {
		for _, prefix := range prefixes {
			for off := 0; off <= 23; off++ {
				head := `"` + prefix + plainBytes[:off] + sp.s
				// after bytes follow the special: some more of the string,
				// the closing quote, then bytes that are not the string's.
				for after := 0; after <= 8; after++ {
					for inside := 0; inside <= max(after-1, 0); inside++ {
						src := head
						if after > 0 {
							src += "yz012345"[:inside] + `"` + trailing[:after-1-inside]
						}
						checkStringParity(t, sp.name, []byte(src))
					}
				}
			}
		}
	}
}

// checkStringParity decodes the string src starts with through String and
// through a json.Decoder and fails the test on any difference.
func checkStringParity(t *testing.T, name string, src []byte) {
	t.Helper()
	var want string
	dec := json.NewDecoder(bytes.NewReader(src))
	wantErr := dec.Decode(&want)
	buf := append([]byte(nil), src...)
	got, next, gotErr := String(buf, 0)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("%s: accept/reject differs on %q:\n encoding/json: %v\n String:        %v", name, src, wantErr, gotErr)
	case wantErr != nil:
		return
	case string(got) != want:
		t.Fatalf("%s: %q decoded %q, encoding/json has %q", name, src, got, want)
	case int64(next) != dec.InputOffset():
		t.Fatalf("%s: %q ends at %d, encoding/json has %d", name, src, next, dec.InputOffset())
	case !bytes.Equal(buf[next-1:], src[next-1:]):
		t.Fatalf("%s: %q: buffer from the closing quote on is %q, was %q", name, src, buf[next-1:], src[next-1:])
	}
	if end, err := ScanString(src, 0); err != nil || end != next {
		t.Fatalf("%s: ScanString(%q) = %d, %v; String ends at %d", name, src, end, err, next)
	}
}

// chromeBody is an extract request shaped like serve-bulk's: pages of
// about pageBytes whose bulk is a stylesheet and a script, escaped as a
// client that is not a Go program escapes them — a backslash every 16
// bytes or so, '<' and '>' left alone.
func chromeBody(tb testing.TB, pages, pageBytes int) []byte {
	tb.Helper()
	type page struct {
		ID   string `json:"id"`
		HTML string `json:"html"`
	}
	req := struct {
		Pages []page `json:"pages"`
	}{}
	for p := 0; p < pages; p++ {
		var html strings.Builder
		html.WriteString("<html><head><style>")
		for i := 0; html.Len() < pageBytes*2/5; i++ {
			fmt.Fprintf(&html, ".c%d{margin:%dpx;color:#%06x;font:%dpx/1.4 \"Helvetica Neue\",sans-serif}\n", i, i%32, i*7919%(1<<24), 10+i%8)
		}
		html.WriteString("</style><script>")
		for i := 0; html.Len() < pageBytes*4/5; i++ {
			fmt.Fprintf(&html, "function f%d(a,b){if(a<b&&b>%d){return \"<div>\"+a+\"</div>\";}return a*%d+b;}\n", i, i%100, i%1000)
		}
		html.WriteString("</script></head><body>")
		for i := 0; html.Len() < pageBytes; i++ {
			fmt.Fprintf(&html, "<li><a href=\"/nav/%d\">Browse %d — café</a></li>\n", i*31%10000, p*100+i)
		}
		html.WriteString("</body></html>")
		req.Pages = append(req.Pages, page{ID: fmt.Sprintf("page%04d", p), HTML: html.String()})
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(req); err != nil {
		tb.Fatal(err)
	}
	return body.Bytes()
}

// stringStarts returns the offset of the opening quote of every string in
// the JSON text src, keys included.
func stringStarts(tb testing.TB, src []byte) []int {
	tb.Helper()
	var starts []int
	for p := 0; p < len(src); p++ {
		if src[p] == '"' {
			end, err := ScanString(src, p)
			if err != nil {
				tb.Fatal(err)
			}
			starts = append(starts, p)
			p = end - 1
		}
	}
	return starts
}

// BenchmarkString is the unescape under both of its users, in MB/s of
// JSON text and 0 allocs/op: chrome16x32KB decodes every string of a
// serve-bulk-shaped request body (≈ 0.5 MB, an escape every 16 bytes),
// tripleLine those of one shard line (short strings, no escapes). String
// spends its input, so each iteration first copies the text back (≈ 12 µs
// of chrome16x32KB's ≈ 350).
func BenchmarkString(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  []byte
	}{
		{"chrome16x32KB", chromeBody(b, 16, 32<<10)},
		{"tripleLine", []byte(lineCases[0].line)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			starts := stringStarts(b, bc.src)
			buf := make([]byte, len(bc.src))
			b.SetBytes(int64(len(bc.src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, bc.src)
				for _, p := range starts {
					val, _, err := String(buf, p)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = val
				}
			}
		})
	}
}
