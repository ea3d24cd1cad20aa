package pagestore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ceres"
)

// Ingest appends a whole page set to a site partition and seals it.
func (s *Store) Ingest(site string, pages []ceres.PageSource) error {
	w, err := s.Writer(site)
	if err != nil {
		return err
	}
	for _, p := range pages {
		if err := w.Append(p); err != nil {
			return err
		}
	}
	return w.Close()
}

// readAll materializes records [start, start+n) of a site through Pages.
func (s *Store) readAll(site string, start, n int) ([]ceres.PageSource, error) {
	var out []ceres.PageSource
	err := s.Pages(context.Background(), site, start, n, func(p ceres.PageSource) error {
		out = append(out, p)
		return nil
	})
	return out, err
}

func genPages(prefix string, n int) []ceres.PageSource {
	out := make([]ceres.PageSource, n)
	for i := range out {
		out[i] = ceres.PageSource{
			ID:   fmt.Sprintf("%s%04d", prefix, i),
			HTML: fmt.Sprintf("<html><body><h1>%s page %d</h1>%s</body></html>", prefix, i, strings.Repeat("<p>filler</p>", i%7)),
		}
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "pages"))
	if err != nil {
		t.Fatal(err)
	}
	a := genPages("a", 53)
	b := genPages("b", 7)
	if err := s.Ingest("alpha.example", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("beta.example/films", b); err != nil {
		t.Fatal(err)
	}

	sites, err := s.Sites()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha.example", "beta.example/films"}; !reflect.DeepEqual(sites, want) {
		t.Fatalf("Sites() = %v, want %v", sites, want)
	}
	got, err := s.readAll("alpha.example", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip lost pages: got %d, want %d", len(got), len(a))
	}
	if n, err := s.PageCount("beta.example/films"); err != nil || n != 7 {
		t.Fatalf("PageCount = %d, %v", n, err)
	}
	if _, err := s.Info("nosuch.example"); !errors.Is(err, ErrSiteNotFound) {
		t.Fatalf("Info(missing) = %v, want ErrSiteNotFound", err)
	}
}

// TestSegmentRotationAndRanges proves multi-segment sites read back
// correctly across every range alignment, including ranges spanning
// segment boundaries, that Pages delivers exactly PagesBytes's records as
// strings, and that an error from the callback on record k stops either
// scan after k.
func TestSegmentRotationAndRanges(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pages := genPages("p", 47)
	w, err := s.Writer("multi.example")
	if err != nil {
		t.Fatal(err)
	}
	w.SegmentPages = 10
	for _, p := range pages {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := s.Info("multi.example")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Segments) != 5 || info.Pages != 47 {
		t.Fatalf("segments = %+v", info)
	}
	if info.Segments[0].Pages != 10 || info.Segments[4].Pages != 7 {
		t.Fatalf("rotation miscounted: %+v", info.Segments)
	}

	for _, r := range []struct{ start, n int }{
		{0, -1}, {0, 47}, {0, 10}, {5, 10}, {9, 2}, {10, 1}, {17, 25}, {40, 7}, {40, -1}, {46, 1}, {47, 5}, {100, -1}, {12, 0},
	} {
		got, err := s.readAll("multi.example", r.start, r.n)
		if err != nil {
			t.Fatalf("Pages(%d,%d): %v", r.start, r.n, err)
		}
		var raw []ceres.PageSource
		if err := s.PagesBytes(context.Background(), "multi.example", r.start, r.n, func(id, html []byte) error {
			raw = append(raw, ceres.PageSource{ID: string(id), HTML: string(html)})
			return nil
		}); err != nil {
			t.Fatalf("PagesBytes(%d,%d): %v", r.start, r.n, err)
		}
		if !reflect.DeepEqual(got, raw) {
			t.Fatalf("Pages(%d,%d) and PagesBytes disagree: %d and %d pages", r.start, r.n, len(got), len(raw))
		}
		end := len(pages)
		if r.n >= 0 && r.start+r.n < end {
			end = r.start + r.n
		}
		want := []ceres.PageSource(nil)
		if r.start < len(pages) && r.start < end {
			want = pages[r.start:end]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Pages(%d,%d) returned %d pages, want %d", r.start, r.n, len(got), len(want))
		}
	}

	// One segment, across a boundary, to the end: the callback's error on
	// its k-th record is what comes back, and no record follows it.
	stop := errors.New("stop")
	for _, r := range []struct{ start, n, k int }{{2, 6, 3}, {5, 10, 7}, {17, -1, 12}} {
		count := func(seen *int) error {
			if *seen++; *seen == r.k {
				return stop
			}
			return nil
		}
		var seen, rawSeen int
		err := s.Pages(context.Background(), "multi.example", r.start, r.n, func(ceres.PageSource) error { return count(&seen) })
		rawErr := s.PagesBytes(context.Background(), "multi.example", r.start, r.n, func(_, _ []byte) error { return count(&rawSeen) })
		if err != stop || rawErr != stop || seen != r.k || rawSeen != r.k {
			t.Fatalf("stop at record %d of (%d,%d): Pages %v after %d, PagesBytes %v after %d", r.k, r.start, r.n, err, seen, rawErr, rawSeen)
		}
	}
}

// TestWriterAppendsAcrossSessions proves a second Writer extends an
// existing partition without rewriting sealed segments.
func TestWriterAppendsAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := genPages("first", 12)
	second := genPages("second", 5)
	if err := s.Ingest("site.example", first); err != nil {
		t.Fatal(err)
	}
	info1, _ := s.Info("site.example")

	// Reopen the store, as a new process would.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Ingest("site.example", second); err != nil {
		t.Fatal(err)
	}
	info2, err := s2.Info("site.example")
	if err != nil {
		t.Fatal(err)
	}
	if info2.Pages != 17 || len(info2.Segments) != len(info1.Segments)+1 {
		t.Fatalf("append merged wrong: %+v", info2)
	}
	got, err := s2.readAll("site.example", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, append(append([]ceres.PageSource{}, first...), second...)) {
		t.Fatalf("appended read-back mismatch: %d pages", len(got))
	}
}

// TestCrashOrphanInvisible proves segments without an index entry —
// what a crash between segment seal and Close leaves behind — are
// invisible to readers and never clobbered by a later writer.
func TestCrashOrphanInvisible(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest("site.example", genPages("ok", 3)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crashed ingest: a sealed segment file, no index update.
	w, err := s.Writer("site.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ceres.PageSource{ID: "orphan", HTML: "<html/>"}); err != nil {
		t.Fatal(err)
	}
	if err := w.seal(); err != nil { // segment on disk, Close never runs
		t.Fatal(err)
	}

	if n, err := s.PageCount("site.example"); err != nil || n != 3 {
		t.Fatalf("orphan leaked into index: %d, %v", n, err)
	}
	// A later writer numbers past the orphan instead of clobbering it.
	w2, err := s.Writer("site.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(ceres.PageSource{ID: "later", HTML: "<html/>"}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := s.readAll("site.example", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].ID != "later" {
		t.Fatalf("post-crash append broken: %+v", got)
	}
}

func TestStoreSiteNameValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", ".."} {
		if _, err := s.Writer(bad); !errors.Is(err, ceres.ErrInvalidSiteName) {
			t.Errorf("Writer(%q) = %v, want ErrInvalidSiteName", bad, err)
		}
		if _, err := s.Info(bad); !errors.Is(err, ceres.ErrInvalidSiteName) {
			t.Errorf("Info(%q) = %v, want ErrInvalidSiteName", bad, err)
		}
	}
	// Unicode and slashed names stay inside the root and round-trip.
	if err := s.Ingest("../kinobox.cz", genPages("x", 2)); err != nil {
		t.Fatal(err)
	}
	sites, err := s.Sites()
	if err != nil || len(sites) != 1 || sites[0] != "../kinobox.cz" {
		t.Fatalf("Sites() = %v, %v", sites, err)
	}
	ents, err := os.ReadDir(filepath.Join(s.Root(), "sites"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("partition escaped: %v %v", ents, err)
	}
	if err := s.Ingest("x", []ceres.PageSource{{ID: "", HTML: "y"}}); !errors.Is(err, ceres.ErrInvalidPage) {
		t.Fatalf("empty page ID accepted: %v", err)
	}
}
