package pagestore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// TestDamagedIndex: an index no Writer writes is refused by Info, naming
// the site, so PageCount fails instead of planning nothing and no name is
// ever opened outside the partition; a segment whose bytes hold fewer
// records than its count claims fails its read without allocating for the
// claim (4e9 records was a fatal out-of-memory, which no recover contains).
func TestDamagedIndex(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const site = "site.example"
	if err := s.Ingest(site, genPages("p", 3)); err != nil {
		t.Fatal(err)
	}
	index := func(pages int, segs string) string {
		return fmt.Sprintf(`{"format":"ceres.pagestore/1","site":%q,"pages":%d,"segments":[%s]}`, site, pages, segs)
	}
	for _, c := range []struct {
		name, index string
		refused     bool // by Info; otherwise by the read
	}{
		{"count beyond the bytes", index(4000000000, `{"file":"seg-000001.gz","pages":4000000000}`), false},
		{"negative site pages", index(-3, ``), true},
		{"negative segment pages", index(0, `{"file":"seg-000001.gz","pages":-3},{"file":"seg-000001.gz","pages":3}`), true},
		{"negative segment bytes", index(3, `{"file":"seg-000001.gz","pages":3,"bytes":-1}`), true},
		{"pages do not add up", index(5, `{"file":"seg-000001.gz","pages":3}`), true},
		{"segments exceed pages", index(3, `{"file":"seg-000001.gz","pages":3},{"file":"seg-000001.gz","pages":3}`), true},
		{"path traversal", index(3, `{"file":"../../../etc/passwd","pages":3}`), true},
		{"unpadded number", index(3, `{"file":"seg-1.gz","pages":3}`), true},
		{"segment zero", index(3, `{"file":"seg-000000.gz","pages":3}`), true},
		{"the index itself", index(3, `{"file":"site.json","pages":3}`), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := os.WriteFile(filepath.Join(s.siteDir(site), "site.json"), []byte(c.index), 0o644); err != nil {
				t.Fatal(err)
			}
			_, infoErr := s.Info(site)
			if c.refused != (infoErr != nil) {
				t.Fatalf("Info: %v, want refused=%v", infoErr, c.refused)
			}
			if c.refused {
				if !strings.Contains(infoErr.Error(), `"`+site+`"`) {
					t.Errorf("Info error %q does not name the site", infoErr)
				}
				if n, err := s.PageCount(site); err == nil {
					t.Errorf("PageCount = %d of a refused index", n)
				}
			}
			delivered := 0
			err := s.PagesBytes(context.Background(), site, 0, -1, func(_, _ []byte) error {
				delivered++
				return nil
			})
			if err == nil || delivered != 0 {
				t.Fatalf("PagesBytes delivered %d records, err %v; want an error and none", delivered, err)
			}
		})
	}
}

// TestPagesBytesCancelled: a cancelled context stops a read with ctx.Err()
// before any record when it is cancelled up front — on a one-segment range
// as on a range spanning segments — and between records when it is
// cancelled by the callback.
func TestPagesBytesCancelled(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer("site.example")
	if err != nil {
		t.Fatal(err)
	}
	w.SegmentPages = 10
	for _, p := range genPages("p", 30) {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []struct{ start, n int }{{0, 10}, {3, 4}, {0, -1}, {5, 20}} {
		calls := 0
		err := s.PagesBytes(cancelled, "site.example", r.start, r.n, func(_, _ []byte) error {
			calls++
			return nil
		})
		if !errors.Is(err, context.Canceled) || calls != 0 {
			t.Errorf("pre-cancelled PagesBytes(%d,%d) = %v after %d records; want context.Canceled and none", r.start, r.n, err, calls)
		}
	}
	for _, r := range []struct{ start, n int }{{0, 10}, {0, -1}} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		err := s.PagesBytes(ctx, "site.example", r.start, r.n, func(_, _ []byte) error {
			if calls++; calls == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || calls != 3 {
			t.Errorf("PagesBytes(%d,%d) cancelled at record 3 = %v after %d records", r.start, r.n, err, calls)
		}
	}
}

// TestPagesBytesEarlyExitLeaksNothing stops a multi-segment scan at every
// record, once by fn failing there and once by fn cancelling ctx there:
// PagesBytes returns that error (none when the cancelling record was the
// last) after exactly the records before it, in order, never calls fn
// again, and leaves no loader running — the
// goroutine count returns to its base. At GOMAXPROCS 1 and 4.
func TestPagesBytesEarlyExitLeaksNothing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Writer("site.example")
	if err != nil {
		t.Fatal(err)
	}
	w.SegmentPages = 10
	pages := genPages("p", 40)
	for _, p := range pages {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop here")
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			base := runtime.NumGoroutine()
			for _, cancelled := range []bool{false, true} {
				for k := range pages {
					ctx, cancel := context.WithCancel(context.Background())
					var got []string
					calls := 0
					err := s.PagesBytes(ctx, "site.example", 0, -1, func(id, _ []byte) error {
						if calls++; calls <= k {
							got = append(got, string(id))
							return nil
						}
						if cancelled {
							cancel()
							return nil
						}
						return errStop
					})
					cancel()
					want := errStop
					switch {
					case cancelled && k == len(pages)-1: // nothing was left to skip
						want = nil
					case cancelled:
						want = context.Canceled
					}
					if !errors.Is(err, want) || calls != k+1 || len(got) != k {
						t.Fatalf("cancelled=%v, stop at record %d: %v after %d calls", cancelled, k, err, calls)
					}
					for i, id := range got {
						if id != pages[i].ID {
							t.Fatalf("cancelled=%v, stop at record %d: record %d is %q", cancelled, k, i, id)
						}
					}
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > base {
						if time.Now().After(deadline) {
							t.Fatalf("cancelled=%v, stop at record %d: %d goroutines, %d before", cancelled, k, runtime.NumGoroutine(), base)
						}
						runtime.Gosched()
					}
				}
			}
		})
	}
}

// TestReadStats: a read of whole default-sized segments inflates exactly
// the record bytes it delivers, framing included; a read of part of a
// segment still inflates all of it.
func TestReadStats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pages := genPages("p", 2*DefaultSegmentPages+5)
	if err := s.Ingest("site.example", pages); err != nil {
		t.Fatal(err)
	}
	recordBytes := func(ps []ceres.PageSource) int64 {
		var n int64
		for _, p := range ps {
			n += int64(len(binary.AppendUvarint(nil, uint64(len(p.ID)))) + len(p.ID) +
				len(binary.AppendUvarint(nil, uint64(len(p.HTML)))) + len(p.HTML))
		}
		return n
	}
	read := func(start, n int) ReadStats {
		before := s.ReadStats()
		if err := s.PagesBytes(context.Background(), "site.example", start, n, func(_, _ []byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		after := s.ReadStats()
		return ReadStats{Inflated: after.Inflated - before.Inflated, Delivered: after.Delivered - before.Delivered}
	}
	if got, all := read(0, -1), recordBytes(pages); got.Inflated != all || got.Delivered != all {
		t.Errorf("full scan: %+v, want %d inflated and delivered", got, all)
	}
	if got, seg := read(DefaultSegmentPages, DefaultSegmentPages), recordBytes(pages[DefaultSegmentPages:2*DefaultSegmentPages]); got.Inflated != seg || got.Delivered != seg {
		t.Errorf("one whole segment: %+v, want %d inflated and delivered", got, seg)
	}
	if got := read(10, 5); got.Inflated != recordBytes(pages[:DefaultSegmentPages]) || got.Delivered != recordBytes(pages[10:15]) {
		t.Errorf("five records of the first segment: %+v", got)
	}
}
