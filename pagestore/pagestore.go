// Package pagestore persists a multi-site crawl on disk for batch
// extraction: the offline page corpus a harvest job reads from, the
// stand-in for the paper's ClueWeb/CommonCrawl WARC collections (§5.1.3).
//
// Layout. A store is a directory of site partitions:
//
//	<root>/sites/<url.PathEscape(site)>/seg-000001.gz
//	                                    seg-000002.gz
//	                                    site.json
//
// Each segment is a single gzip stream of length-prefixed page records
// (uvarint id length, id bytes, uvarint HTML length, HTML bytes) and is
// append-only: once a segment is sealed it is never rewritten. site.json
// is the site's index — the ordered segment list with per-segment page
// counts — and is replaced atomically (write-to-temp then rename) when a
// Writer seals its segments, so a reader never observes a torn index and
// a crash mid-ingest leaves at worst orphan segments the index does not
// reference (a later Writer numbers past them).
//
// Reading is segment-granular and has one plane, PagesBytes: it plans
// which segments a range touches (whole segments before the range are
// never opened), inflates each to gzip EOF — the trailer's CRC-32 and
// length are what catch a damaged segment — through a pooled gzip reader
// into a pooled buffer, and frames records out of that buffer with an
// allocation-free cursor, handing the callback views valid for the call.
// A segment holds as many pages as a default batch shard, so a shard
// inflates one segment and nothing it does not deliver; ReadStats counts
// both sides. A range spanning several segments is read ahead by
// par.Ordered, whose loaders decompress segments in parallel while the
// callback consumes them in ingest order; memory stays bounded by the
// read-ahead window (two segments per loader), never the site. Pages is
// the same scan with each record copied into a ceres.PageSource. A Store
// is the page provider of a batch harvest (ceres/batch.PageProvider).
package pagestore

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ceres"
	"ceres/internal/fsatomic"
	"ceres/internal/par"
)

// ErrSiteNotFound reports a site absent from the store; test with
// errors.Is.
var ErrSiteNotFound = errors.New("pagestore: site not found")

// indexFormat versions the site.json index file.
const indexFormat = "ceres.pagestore/1"

// DefaultSegmentPages is how many pages a Writer packs into one segment
// before rotating. It is a batch harvest's default shard size, so a
// default shard reads exactly one segment and every stored byte is
// inflated once per pass; a store written with larger segments reads the
// same records at the cost of inflating what a shard skips.
const DefaultSegmentPages = 64

// SegmentInfo describes one sealed segment of a site partition.
type SegmentInfo struct {
	// File is the segment file name within the site directory.
	File string `json:"file"`
	// Pages is the number of page records in the segment.
	Pages int `json:"pages"`
	// Bytes is the compressed size of the segment file.
	Bytes int64 `json:"bytes"`
}

// SiteInfo is the index of one site partition.
type SiteInfo struct {
	Format string `json:"format"`
	// Site is the unescaped site name.
	Site string `json:"site"`
	// Pages is the total page count across segments.
	Pages int `json:"pages"`
	// Segments lists the sealed segments in read order.
	Segments []SegmentInfo `json:"segments"`
}

// Store is a site-partitioned page corpus on disk. It is safe for
// concurrent use within one process: any number of readers may stream
// while writers ingest, and writers to different sites never contend.
// Two Writers for the same site must not run concurrently.
type Store struct {
	root string
	mu   sync.Mutex // serializes index rewrites per process

	inflated, delivered atomic.Int64 // ReadStats
}

// ReadStats is what a Store's reads have done since Open: Inflated counts
// the bytes gunzipped out of segment files, Delivered the record bytes,
// framing included, handed to callbacks. Inflated over Delivered is how
// many times over the reads paid for what they used — 1 when every read
// takes whole segments.
type ReadStats struct {
	Inflated  int64 `json:"inflated"`
	Delivered int64 `json:"delivered"`
}

// ReadStats returns the store's read counters.
func (s *Store) ReadStats() ReadStats {
	return ReadStats{Inflated: s.inflated.Load(), Delivered: s.delivered.Load()}
}

// Open opens (creating if needed) a page store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sites"), 0o755); err != nil {
		return nil, fmt.Errorf("pagestore: opening store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) siteDir(site string) string {
	return filepath.Join(s.root, "sites", url.PathEscape(site))
}

// Sites lists the stored sites, sorted. Only sites with a sealed index
// appear: a partition that crashed before its first Writer.Close is
// invisible.
func (s *Store) Sites() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "sites"))
	if err != nil {
		return nil, fmt.Errorf("pagestore: listing sites: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		site, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // not a store partition
		}
		if _, err := os.Stat(filepath.Join(s.siteDir(site), "site.json")); err != nil {
			continue
		}
		out = append(out, site)
	}
	sort.Strings(out)
	return out, nil
}

// Info loads a site's index. It returns ErrSiteNotFound for a site the
// store does not hold, and refuses an index no Writer writes (checkIndex).
func (s *Store) Info(site string) (SiteInfo, error) {
	if err := ceres.CheckSiteName(site); err != nil {
		return SiteInfo{}, fmt.Errorf("pagestore: %w", err)
	}
	b, err := os.ReadFile(filepath.Join(s.siteDir(site), "site.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return SiteInfo{}, fmt.Errorf("%w: %q", ErrSiteNotFound, site)
		}
		return SiteInfo{}, fmt.Errorf("pagestore: reading index: %w", err)
	}
	var info SiteInfo
	if err := json.Unmarshal(b, &info); err != nil {
		return SiteInfo{}, fmt.Errorf("pagestore: reading index of %q: %w", site, err)
	}
	if info.Format != indexFormat {
		return SiteInfo{}, fmt.Errorf("pagestore: unknown index format %q for site %q", info.Format, site)
	}
	if err := checkIndex(info); err != nil {
		return SiteInfo{}, fmt.Errorf("pagestore: index of %q: %w", site, err)
	}
	return info, nil
}

// checkIndex refuses what a reader must not act on: a negative count (a
// site that silently delivers nothing), segment pages that do not add up
// to Pages, and a segment file name other than the one a Writer gives it
// (the name is joined onto the site directory and opened).
func checkIndex(info SiteInfo) error {
	if info.Pages < 0 {
		return fmt.Errorf("negative page count %d", info.Pages)
	}
	sum := 0
	for i, seg := range info.Segments {
		if seg.Pages < 0 || seg.Bytes < 0 {
			return fmt.Errorf("segment %d: negative count", i)
		}
		if !isSegmentFile(seg.File) {
			return fmt.Errorf("segment %d: %q is not a segment file name", i, seg.File)
		}
		if seg.Pages > info.Pages-sum {
			return fmt.Errorf("segment pages add up to more than %d", info.Pages)
		}
		sum += seg.Pages
	}
	if sum != info.Pages {
		return fmt.Errorf("segment pages add up to %d, not %d", sum, info.Pages)
	}
	return nil
}

// PageCount returns a site's total page count.
func (s *Store) PageCount(site string) (int, error) {
	info, err := s.Info(site)
	if err != nil {
		return 0, err
	}
	return info.Pages, nil
}

// Writer ingests pages into one site partition. Append streams records
// into gzip segment files, rotating every SegmentPages pages; Close seals
// the open segment and publishes the updated index atomically. Until
// Close returns, readers see the partition as it was before the Writer
// started — ingest is all-or-nothing at segment granularity.
type Writer struct {
	// SegmentPages caps pages per segment (DefaultSegmentPages when left
	// zero). Change it before the first Append.
	SegmentPages int

	store *Store
	site  string
	dir   string
	info  SiteInfo // index as of open, plus sealed segments

	f       *os.File
	gz      *gzip.Writer
	bw      *bufio.Writer
	segPage int // pages in the open segment
	nextSeg int
	scratch []byte
}

// Writer opens a writer that appends pages to a site partition, creating
// the partition on first use.
func (s *Store) Writer(site string) (*Writer, error) {
	if err := ceres.CheckSiteName(site); err != nil {
		return nil, fmt.Errorf("pagestore: %w", err)
	}
	dir := s.siteDir(site)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pagestore: opening writer: %w", err)
	}
	info, err := s.Info(site)
	if err != nil {
		if !errors.Is(err, ErrSiteNotFound) {
			return nil, err
		}
		info = SiteInfo{Format: indexFormat, Site: site}
	}
	// Number new segments past everything on disk — indexed or orphaned by
	// a crash — so an append never clobbers an existing file.
	next := 1
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("pagestore: opening writer: %w", err)
	}
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.gz", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return &Writer{store: s, site: site, dir: dir, info: info, nextSeg: next}, nil
}

func segmentFile(n int) string { return fmt.Sprintf("seg-%06d.gz", n) }

// isSegmentFile reports whether name is segmentFile(n) for some n ≥ 1.
func isSegmentFile(name string) bool {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".gz"))
	return err == nil && n > 0 && segmentFile(n) == name
}

// Append adds one page record to the partition.
func (w *Writer) Append(p ceres.PageSource) error {
	if p.ID == "" {
		return fmt.Errorf("pagestore: %w: empty page ID", ceres.ErrInvalidPage)
	}
	if w.f == nil {
		if err := w.openSegment(); err != nil {
			return err
		}
	}
	w.scratch = binary.AppendUvarint(w.scratch[:0], uint64(len(p.ID)))
	w.scratch = append(w.scratch, p.ID...)
	w.scratch = binary.AppendUvarint(w.scratch, uint64(len(p.HTML)))
	if _, err := w.bw.Write(w.scratch); err != nil {
		return fmt.Errorf("pagestore: appending page: %w", err)
	}
	if _, err := w.bw.WriteString(p.HTML); err != nil {
		return fmt.Errorf("pagestore: appending page: %w", err)
	}
	w.segPage++
	segCap := w.SegmentPages
	if segCap <= 0 {
		segCap = DefaultSegmentPages
	}
	if w.segPage >= segCap {
		return w.seal()
	}
	return nil
}

func (w *Writer) openSegment() error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentFile(w.nextSeg)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("pagestore: opening segment: %w", err)
	}
	w.f = f
	w.gz = gzip.NewWriter(f)
	w.bw = bufio.NewWriterSize(w.gz, 64<<10)
	w.segPage = 0
	return nil
}

// seal flushes and closes the open segment and records it in the pending
// index.
func (w *Writer) seal() error {
	if w.f == nil {
		return nil
	}
	name := segmentFile(w.nextSeg)
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("pagestore: sealing segment: %w", err)
	}
	if err := w.gz.Close(); err != nil {
		return fmt.Errorf("pagestore: sealing segment: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: sealing segment: %w", err)
	}
	st, err := w.f.Stat()
	if err != nil {
		return fmt.Errorf("pagestore: sealing segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("pagestore: sealing segment: %w", err)
	}
	w.info.Segments = append(w.info.Segments, SegmentInfo{File: name, Pages: w.segPage, Bytes: st.Size()})
	w.info.Pages += w.segPage
	w.f, w.gz, w.bw = nil, nil, nil
	w.nextSeg++
	w.segPage = 0
	return nil
}

// Close seals the open segment and atomically publishes the updated
// index. The ingested pages become visible to readers only when Close
// returns nil.
func (w *Writer) Close() error {
	if err := w.seal(); err != nil {
		return err
	}
	w.store.mu.Lock()
	defer w.store.mu.Unlock()
	b, err := json.MarshalIndent(w.info, "", "  ")
	if err != nil {
		return fmt.Errorf("pagestore: writing index: %w", err)
	}
	if err := fsatomic.WriteFile(filepath.Join(w.dir, "site.json"), append(b, '\n')); err != nil {
		return fmt.Errorf("pagestore: writing index: %w", err)
	}
	return nil
}

// maxReadahead caps the loaders of a multi-segment scan, which
// GOMAXPROCS bounds further on small machines. Each loader holds at most
// two inflated segments (par.Ordered), so a scan has at most
// 2·min(GOMAXPROCS, maxReadahead) in memory at once.
const maxReadahead = 8

// segRead is one planned segment read: skip records at the front of the
// segment, then deliver take records.
type segRead struct {
	seg        SegmentInfo
	skip, take int
}

// planReads maps a record range [start, start+n) onto the segments it
// touches. Segments wholly before or after the range do not appear.
func planReads(info SiteInfo, start, n int) []segRead {
	var reads []segRead
	for _, seg := range info.Segments {
		if n <= 0 {
			break
		}
		if start >= seg.Pages {
			start -= seg.Pages
			continue
		}
		take := seg.Pages - start
		if take > n {
			take = n
		}
		reads = append(reads, segRead{seg: seg, skip: start, take: take})
		n -= take
		start = 0
	}
	return reads
}

// Pools for the segment decode path: gzip readers (Reset-able, each
// carries a ~32KiB window), the bufio readers in front of segment files,
// and the inflated-segment buffers. All three grow to the working set of
// the readahead pool and then stop allocating, whatever the corpus size.
var (
	gzipPool  sync.Pool // *gzip.Reader
	bufioPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
	inflPool  sync.Pool // *[]byte
)

// recSpan locates one delivered record's payloads inside an inflated
// segment buffer.
type recSpan struct {
	idLo, idHi, htmlLo, htmlHi int
}

// segment is one decoded segment read: the pooled inflated buffer and the
// spans of the records the read delivers, which lie back to back from lo.
type segment struct {
	bufp  *[]byte
	lo    int
	spans []recSpan
}

// decodeSegment opens, inflates and frames one planned segment read.
// Ownership of the pooled buffer transfers to the caller, which hands it
// back through deliver.
func (s *Store) decodeSegment(site string, sr segRead) (segment, error) {
	f, err := os.Open(filepath.Join(s.siteDir(site), sr.seg.File))
	if err != nil {
		return segment{}, fmt.Errorf("pagestore: opening segment: %w", err)
	}
	defer f.Close()
	br := bufioPool.Get().(*bufio.Reader)
	br.Reset(f)
	defer bufioPool.Put(br)
	var gz *gzip.Reader
	if pooled := gzipPool.Get(); pooled != nil {
		gz = pooled.(*gzip.Reader)
		err = gz.Reset(br)
	} else {
		gz, err = gzip.NewReader(br)
	}
	if err != nil {
		return segment{}, fmt.Errorf("pagestore: reading segment %s: %w", sr.seg.File, err)
	}
	defer gzipPool.Put(gz)

	bufp, _ := inflPool.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
	}
	data, err := readAllInto((*bufp)[:0], gz)
	*bufp = data // keep the grown capacity pooled even on error
	s.inflated.Add(int64(len(data)))
	if err == nil {
		err = gz.Close()
	}
	if err != nil {
		inflPool.Put(bufp)
		return segment{}, fmt.Errorf("pagestore: reading segment %s: %w", sr.seg.File, err)
	}

	// A record frames to at least two bytes, so what was inflated bounds
	// the spans, whatever count the index claims.
	seg := segment{bufp: bufp, spans: make([]recSpan, 0, min(sr.take, len(data)/2))}
	off := 0
	for i := 0; i < sr.skip+sr.take; i++ {
		if i == sr.skip {
			seg.lo = off
		}
		idLo, idHi, htmlLo, htmlHi, next, ok := frameRecord(data, off)
		if !ok {
			inflPool.Put(bufp)
			return segment{}, fmt.Errorf("pagestore: reading segment %s: truncated record %d", sr.seg.File, i)
		}
		if i >= sr.skip { // skipped records never materialize
			seg.spans = append(seg.spans, recSpan{idLo, idHi, htmlLo, htmlHi})
		}
		off = next
	}
	return seg, nil
}

// PagesBytes streams records [start, start+n) of a site in ingest order
// through fn; n < 0 streams to the end. fn receives views into the pooled
// inflated segment buffer, valid only during the call. A non-nil error
// from fn stops the scan and is returned; a cancelled ctx stops it with
// ctx.Err(), checked before anything is read and between records. Whole
// segments before start are never opened and records skipped inside the
// first touched one are framed, never delivered. A range spanning several
// segments is inflated in parallel by par.Ordered's loaders while fn
// consumes the records strictly in order, so the callback sequence is that
// of a sequential scan and memory is bounded by the read-ahead window
// (maxReadahead), never the site; a range inside one segment — a default
// shard — is read on the caller's goroutine. Every loader has exited when
// PagesBytes returns, however it returns.
func (s *Store) PagesBytes(ctx context.Context, site string, start, n int, fn func(id, html []byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if start < 0 {
		return fmt.Errorf("pagestore: negative start %d", start)
	}
	info, err := s.Info(site)
	if err != nil {
		return err
	}
	if n < 0 {
		n = info.Pages - start
	}
	reads := planReads(info, start, n)
	type batch struct {
		seg segment
		err error
	}
	return par.Ordered(ctx, len(reads), min(runtime.GOMAXPROCS(0), maxReadahead),
		func(_, i int, b *batch) { b.seg, b.err = s.decodeSegment(site, reads[i]) },
		func(_ int, b *batch) error {
			if b.err != nil {
				return b.err
			}
			return s.deliver(ctx, b.seg, fn)
		})
}

// Pages is PagesBytes for callers that keep the pages (a training sample,
// a test): each delivered record becomes the two strings of a
// ceres.PageSource, made on the caller's goroutine.
func (s *Store) Pages(ctx context.Context, site string, start, n int, fn func(ceres.PageSource) error) error {
	return s.PagesBytes(ctx, site, start, n, func(id, html []byte) error {
		return fn(ceres.PageSource{ID: string(id), HTML: string(html)})
	})
}

// deliver feeds a decoded segment's records to fn as buffer views until fn
// fails or ctx is cancelled, counts the record bytes fn was handed, and
// returns the buffer to the pool.
func (s *Store) deliver(ctx context.Context, seg segment, fn func(id, html []byte) error) error {
	data, end := *seg.bufp, seg.lo
	done := ctx.Done()
	var err error
	for _, sp := range seg.spans {
		select {
		case <-done:
			err = ctx.Err()
		default:
			end = sp.htmlHi
			err = fn(data[sp.idLo:sp.idHi], data[sp.htmlLo:sp.htmlHi])
		}
		if err != nil {
			break
		}
	}
	s.delivered.Add(int64(end - seg.lo))
	inflPool.Put(seg.bufp)
	return err
}

// readAllInto reads r to EOF appending to buf (reusing its capacity),
// like io.ReadAll but into a caller-owned buffer.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// frameRecord parses the record frame at off — uvarint id length, id
// bytes, uvarint HTML length, HTML bytes — returning the two payload
// ranges and the offset after the record. It never allocates, so
// skipping a record is free.
//
//ceres:allocfree
func frameRecord(b []byte, off int) (idLo, idHi, htmlLo, htmlHi, next int, ok bool) {
	idLen, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, 0, 0, 0, 0, false
	}
	idLo = off + n
	if idLen > uint64(len(b)-idLo) {
		return 0, 0, 0, 0, 0, false
	}
	idHi = idLo + int(idLen)
	htmlLen, n := binary.Uvarint(b[idHi:])
	if n <= 0 {
		return 0, 0, 0, 0, 0, false
	}
	htmlLo = idHi + n
	if htmlLen > uint64(len(b)-htmlLo) {
		return 0, 0, 0, 0, 0, false
	}
	htmlHi = htmlLo + int(htmlLen)
	return idLo, idHi, htmlLo, htmlHi, htmlHi, true
}
