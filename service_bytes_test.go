package ceres

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// packPages lays pages out back to back in one buffer, the way a
// daemon's request buffer holds them, and returns the buffer with the
// byte pages aliasing it.
func packPages(pages []PageSource) ([]byte, []PageBytes) {
	var buf []byte
	for _, p := range pages {
		buf = append(buf, p.HTML...)
	}
	out := make([]PageBytes, len(pages))
	off := 0
	for i, p := range pages {
		out[i] = PageBytes{ID: p.ID, HTML: buf[off : off+len(p.HTML) : off+len(p.HTML)]}
		off += len(p.HTML)
	}
	return buf, out
}

// TestServiceExtractBytesMatchesExtract is the differential test of the
// byte-native entry: over single- and multi-cluster corpora, at several
// thresholds and worker counts, ExtractBytes must return exactly what
// Extract returns for the same pages — triples, order and statistics.
func TestServiceExtractBytesMatchesExtract(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []string{"movies", "imdb-people", "crawl-czech"} {
		t.Run(kind, func(t *testing.T) {
			c, err := DemoCorpus(kind, 7, 60)
			if err != nil {
				t.Fatal(err)
			}
			model, err := NewPipeline(c.KB).Train(ctx, c.Pages[:40])
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			reg.Publish(kind, 1, model)
			svc := NewService(reg)
			serve := c.Pages[40:]
			_, pages := packPages(serve)
			for _, workers := range []int{1, 3, 1000} {
				for _, th := range []float64{0, 0.75} {
					opts := RequestOptions{Threshold: &th, Workers: workers}
					want, err := svc.Extract(ctx, ExtractRequest{Site: kind, Pages: serve, Options: opts})
					if err != nil {
						t.Fatal(err)
					}
					got, err := svc.ExtractBytes(ctx, kind, PageSlice(pages), opts)
					if err != nil {
						t.Fatal(err)
					}
					// Latency, stage times and what the workers' context
					// caches had seen before are the calls' own; Fields is
					// not.
					for _, st := range []*ServeStats{&want.Stats, &got.Stats} {
						st.Latency, st.Stages, st.ContextMisses, st.ContextUncached, st.CacheEvictions = 0, StageBreakdown{}, 0, 0, 0
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("workers %d threshold %.2f: ExtractBytes %d triples %+v, Extract %d triples %+v",
							workers, th, len(got.Triples), got.Stats, len(want.Triples), want.Stats)
					}
				}
			}
		})
	}
}

// TestServiceExtractBytesBufferLifetime checks the aliasing contract of
// the byte path: pages are only read during the call, so once it returns
// the caller may scribble over (or recycle) the buffer they lived in and
// the triples — which own their strings — stay byte-identical to
// SiteModel.Extract on the same pages. The request is traced like
// Extract: same root span, same children.
func TestServiceExtractBytesBufferLifetime(t *testing.T) {
	f, svc, tr, _ := tracedFixture(t, TracerOptions{SampleEvery: 1})
	ctx := context.Background()
	buf, pages := packPages(f.serve)
	resp, err := svc.ExtractBytes(ctx, "demo", PageSlice(pages), RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = '#'
	}
	want, err := f.model.Extract(ctx, f.serve)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Triples) == 0 || !reflect.DeepEqual(resp.Triples, want.Triples) {
		t.Fatalf("after scribbling over the page buffer: %d triples, SiteModel.Extract has %d, or contents differ",
			len(resp.Triples), len(want.Triples))
	}
	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "service.extract" {
		t.Fatalf("traced %d roots, first %q; want one service.extract", len(roots), roots[0].Name())
	}
	var names []string
	for _, k := range roots[0].Children() {
		names = append(names, k.Name())
	}
	if strings.Join(names, ",") != "admission,lookup,extract,fuse" {
		t.Errorf("span children = %v, want [admission lookup extract fuse]", names)
	}
}

// TestServiceExtractBytesErrors holds the byte path to Extract's error
// contract.
func TestServiceExtractBytesErrors(t *testing.T) {
	f, svc := serviceFixture(t)
	ctx := context.Background()
	_, pages := packPages(f.serve)
	if _, err := svc.ExtractBytes(ctx, "nope", PageSlice(pages), RequestOptions{}); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("unknown site = %v, want ErrUnknownSite", err)
	}
	if _, err := svc.ExtractBytes(ctx, "demo", PageSlice(nil), RequestOptions{}); !errors.Is(err, ErrNoPages) {
		t.Errorf("no pages = %v, want ErrNoPages", err)
	}
	anonymous := append([]PageBytes{}, pages[:2]...)
	anonymous[1].ID = ""
	if _, err := svc.ExtractBytes(ctx, "demo", PageSlice(anonymous), RequestOptions{}); !errors.Is(err, ErrInvalidPage) {
		t.Errorf("empty page ID = %v, want ErrInvalidPage", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.ExtractBytes(cancelled, "demo", PageSlice(pages), RequestOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx = %v, want context.Canceled", err)
	}
	reg := NewRegistry()
	reg.Publish("blank", 1, &SiteModel{})
	if _, err := NewService(reg).ExtractBytes(ctx, "blank", PageSlice(pages), RequestOptions{}); !errors.Is(err, ErrNotTrained) {
		t.Errorf("untrained model = %v, want ErrNotTrained", err)
	}
}

// cutFeed yields its pages, then sets opts and ends with err: a request
// body that turns out malformed (err) or carries its options after its
// pages (opts).
type cutFeed struct {
	pages []PageBytes
	opts  RequestOptions
	err   error
}

func (f cutFeed) Feed(yield func(PageBytes), opts *RequestOptions) error {
	for _, p := range f.pages {
		yield(p)
	}
	*opts = f.opts
	return f.err
}

// TestServiceExtractBytesFeedFirst holds ExtractBytes to its feed: a
// feed's own error wins over every error the request would otherwise
// get — unknown site, untrained model, empty ID, no pages — although
// pages went to extraction before it; and the threshold and workers a
// feed sets once its pages are out are the ones the request is served
// under.
func TestServiceExtractBytesFeedFirst(t *testing.T) {
	f, svc := serviceFixture(t)
	reg := NewRegistry()
	reg.Publish("blank", 1, &SiteModel{})
	blank := NewService(reg)
	ctx := context.Background()
	_, pages := packPages(f.serve)
	anonymous := append([]PageBytes{}, pages...)
	anonymous[2].ID = ""
	errCut := errors.New("body cut short")
	for _, tc := range []struct {
		name  string
		svc   *Service
		site  string
		pages []PageBytes
	}{
		{"served site", svc, "demo", pages},
		{"unknown site", svc, "nope", pages},
		{"untrained model", blank, "blank", pages},
		{"empty ID", svc, "demo", anonymous},
		{"no pages", svc, "demo", nil},
	} {
		if _, err := tc.svc.ExtractBytes(ctx, tc.site, cutFeed{pages: tc.pages, err: errCut}, RequestOptions{}); err != errCut {
			t.Errorf("%s, feed cut short: %v, want the feed's error", tc.name, err)
		}
	}
	th := 0.0 // below the model's threshold, so it shows in the triples
	want, err := svc.ExtractBytes(ctx, "demo", PageSlice(pages), RequestOptions{Threshold: &th, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.ExtractBytes(ctx, "demo", cutFeed{pages: pages, opts: RequestOptions{Threshold: &th, Workers: 1}}, RequestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Threshold != th || len(got.Triples) == 0 || !reflect.DeepEqual(got.Triples, want.Triples) {
		t.Errorf("options set as the feed ends: threshold %v, %d triples; want %v, %d", got.Threshold, len(got.Triples), th, len(want.Triples))
	}
}
