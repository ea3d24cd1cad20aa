package pagestore

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ceres"
)

const fuzzSite = "fuzz.example"

// FuzzPagestoreRead feeds the read plane a fuzzed site.json and one
// segment file, seg-000001.gz, holding a fuzzed record stream the harness
// gzips itself — so inputs reach the framer, not only gzip's checks — with
// trim bytes cut off the end of the gzip stream. PagesBytes and Pages over
// a fuzzed range must not panic, must deliver the same records and fail
// alike, and must either fail or deliver exactly what refRead expects, in
// order.
func FuzzPagestoreRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, index, records []byte, trim, start, n int) {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dir := s.siteDir(fuzzSite)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "site.json"), index, 0o644); err != nil {
			t.Fatal(err)
		}
		var seg bytes.Buffer
		zw := gzip.NewWriter(&seg)
		if _, err := zw.Write(records); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		trim = min(max(trim, 0), seg.Len())
		if err := os.WriteFile(filepath.Join(dir, segmentFile(1)), seg.Bytes()[:seg.Len()-trim], 0o644); err != nil {
			t.Fatal(err)
		}

		ctx := context.Background()
		var raw, strs []ceres.PageSource
		err = s.PagesBytes(ctx, fuzzSite, start, n, func(id, html []byte) error {
			raw = append(raw, ceres.PageSource{ID: string(id), HTML: string(html)})
			return nil
		})
		serr := s.Pages(ctx, fuzzSite, start, n, func(p ceres.PageSource) error {
			strs = append(strs, p)
			return nil
		})
		if !slices.Equal(raw, strs) || errString(err) != errString(serr) {
			t.Fatalf("PagesBytes delivered %d records (%v), Pages %d (%v)", len(raw), err, len(strs), serr)
		}
		if err != nil {
			return
		}
		info, err := s.Info(fuzzSite)
		if err != nil {
			t.Fatalf("PagesBytes read a site whose index Info refuses: %v", err)
		}
		want, ok := refRead(info, refFrame(records), trim == 0, start, n)
		if !ok {
			t.Fatalf("PagesBytes(%d,%d) delivered %d records; the reference cannot read that range", start, n, len(raw))
		}
		if !slices.Equal(raw, want) {
			t.Fatalf("PagesBytes(%d,%d) delivered %d records, the reference %d", start, n, len(raw), len(want))
		}
	})
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// refFrame is the reference framer: the records of a stream, read one
// field at a time off a bufio.Reader, up to the first that is incomplete.
func refFrame(stream []byte) []ceres.PageSource {
	r := bufio.NewReader(bytes.NewReader(stream))
	field := func() (string, bool) {
		n, err := binary.ReadUvarint(r)
		if err != nil || n > uint64(len(stream)) {
			return "", false
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", false
		}
		return string(b), true
	}
	var out []ceres.PageSource
	for {
		id, ok := field()
		if !ok {
			return out
		}
		html, ok := field()
		if !ok {
			return out
		}
		out = append(out, ceres.PageSource{ID: id, HTML: html})
	}
}

// refRead is the reference read: records [start, start+n) of the index's
// layout (n < 0 to the end), each segment the leading records of the one
// file written, and false when the range needs a record nobody can read —
// another file, a cut gzip stream, a record the stream does not hold.
func refRead(info SiteInfo, recs []ceres.PageSource, intact bool, start, n int) ([]ceres.PageSource, bool) {
	if start < 0 {
		return nil, false
	}
	end := info.Pages
	if n >= 0 && n < info.Pages-start {
		end = start + n
	}
	var out []ceres.PageSource
	base := 0
	for _, seg := range info.Segments {
		lo, hi := max(start, base), min(end, base+seg.Pages)
		if lo < hi {
			if seg.File != segmentFile(1) || !intact || hi-base > len(recs) {
				return nil, false
			}
			out = append(out, recs[lo-base:hi-base]...)
		}
		base += seg.Pages
	}
	return out, true
}
