package ceres

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ceres/internal/core"
)

// TestServiceExtractMatchesSetThreshold is the differential acceptance
// test of the request-scoped API: over every demo corpus kind, a
// per-request Threshold must return exactly the triples that mutating the
// model with SetThreshold and calling SiteModel.Extract returns on the
// same pages.
func TestServiceExtractMatchesSetThreshold(t *testing.T) {
	ctx := context.Background()
	kinds := []string{"movies", "movies-longtail", "imdb-films", "imdb-people", "crawl-czech"}
	for _, kind := range kinds {
		t.Run(kind, func(t *testing.T) {
			c, err := DemoCorpus(kind, 7, 60)
			if err != nil {
				t.Fatal(err)
			}
			model, err := NewPipeline(c.KB).Train(ctx, c.Pages)
			if err != nil {
				t.Fatal(err)
			}
			reg := NewRegistry()
			reg.Publish(kind, 1, model)
			svc := NewService(reg)
			defer model.SetThreshold(0.5)
			for _, th := range []float64{0, 0.3, 0.75} {
				th := th
				resp, err := svc.Extract(ctx, ExtractRequest{
					Site:    kind,
					Pages:   c.Pages,
					Options: RequestOptions{Threshold: &th},
				})
				if err != nil {
					t.Fatal(err)
				}
				model.SetThreshold(th)
				want, err := model.Extract(ctx, c.Pages)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(resp.Triples, want.Triples) {
					t.Fatalf("threshold %.2f: service extracted %d triples, SetThreshold path %d, or contents differ",
						th, len(resp.Triples), len(want.Triples))
				}
				if resp.Threshold != th || resp.Stats.Triples != len(resp.Triples) ||
					resp.Stats.Pages != len(c.Pages) || resp.Stats.RoutedClusters < 1 {
					t.Errorf("threshold %.2f: response metadata inconsistent: %+v", th, resp.Stats)
				}
			}
		})
	}
}

func serviceFixture(t *testing.T) (*trainServeFixture, *Service) {
	t.Helper()
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	reg.Publish("demo", 1, f.model)
	return f, NewService(reg)
}

// TestServiceConcurrentThresholds runs loose and strict requests against
// one model at the same time; each must observe exactly its own cutoff.
func TestServiceConcurrentThresholds(t *testing.T) {
	f, svc := serviceFixture(t)
	ctx := context.Background()
	loose, strict := 0.1, 0.95
	var wg sync.WaitGroup
	responses := make([]*ExtractResponse, 16)
	errs := make([]error, len(responses))
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := &loose
			if i%2 == 1 {
				th = &strict
			}
			responses[i], errs[i] = svc.Extract(ctx, ExtractRequest{
				Site: "demo", Pages: f.serve, Options: RequestOptions{Threshold: th},
			})
		}(i)
	}
	wg.Wait()
	var nLoose, nStrict int
	for i, resp := range responses {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want := loose
		if i%2 == 1 {
			want = strict
		}
		if resp.Threshold != want {
			t.Fatalf("request %d served at threshold %v, want %v", i, resp.Threshold, want)
		}
		for _, tr := range resp.Triples {
			if tr.Confidence < want {
				t.Fatalf("request %d: triple %v below its own cutoff %v", i, tr.Confidence, want)
			}
		}
		if i%2 == 0 {
			nLoose = len(resp.Triples)
		} else {
			nStrict = len(resp.Triples)
		}
	}
	if nLoose <= nStrict {
		t.Errorf("loose cutoff yielded %d triples, strict %d; expected strictly more", nLoose, nStrict)
	}
}

// TestRegistryPublishDuringExtract hot-swaps models while extraction
// requests are in flight; under -race this is the lock-free
// read path's proof. Every request must be served whole by one version.
func TestRegistryPublishDuringExtract(t *testing.T) {
	f, svc := serviceFixture(t)
	reg := svc.reg
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: publish new versions
		defer wg.Done()
		for v := 2; ctx.Err() == nil; v++ {
			reg.Publish("demo", v, f.model)
		}
	}()
	for i := 0; i < 20; i++ {
		resp, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve[:4]})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Stats.Pages != 4 {
			t.Fatalf("request %d: stats %+v", i, resp.Stats)
		}
	}
	cancel()
	wg.Wait()
}

func TestServiceWorkersOverrideDeterministic(t *testing.T) {
	f, svc := serviceFixture(t)
	ctx := context.Background()
	one, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve, Options: RequestOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	many, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve, Options: RequestOptions{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Triples, many.Triples) {
		t.Fatalf("Workers=1 extracted %d triples, Workers=8 %d, or contents differ", len(one.Triples), len(many.Triples))
	}
	if one.Stats.RoutedClusters != many.Stats.RoutedClusters {
		t.Errorf("routing disagrees across worker counts: %d vs %d", one.Stats.RoutedClusters, many.Stats.RoutedClusters)
	}
	// A hostile worker count is clamped to the page count, not allocated.
	huge, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve[:2], Options: RequestOptions{Workers: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	if huge.Stats.Pages != 2 {
		t.Errorf("huge worker request stats = %+v", huge.Stats)
	}
}

func TestServiceErrors(t *testing.T) {
	f, svc := serviceFixture(t)
	ctx := context.Background()
	if _, err := svc.Extract(ctx, ExtractRequest{Site: "nope", Pages: f.serve}); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("unknown site = %v, want ErrUnknownSite", err)
	}
	if _, err := svc.Extract(ctx, ExtractRequest{Site: "demo"}); !errors.Is(err, ErrNoPages) {
		t.Errorf("no pages = %v, want ErrNoPages", err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.Extract(cancelled, ExtractRequest{Site: "demo", Pages: f.serve}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx = %v, want context.Canceled", err)
	}
}

// holdSlot serves one page through ExtractScan and parks inside the scan
// — admitted, holding its inflight slot — from closing block until release
// is closed.
func holdSlot(svc *Service, page PageSource, block, release chan struct{}) {
	svc.ExtractScan(context.Background(), "demo", RequestOptions{}, func(yield func(string, []byte) error) error {
		close(block)
		<-release
		return yield(page.ID, []byte(page.HTML))
	})
}

// TestServiceMaxInflight saturates a single-slot service and checks that a
// queued request honours its context instead of waiting forever.
func TestServiceMaxInflight(t *testing.T) {
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	reg.Publish("demo", 1, f.model)
	svc := NewService(reg, WithMaxInflight(1))

	block := make(chan struct{})
	release := make(chan struct{})
	go holdSlot(svc, f.serve[0], block, release)
	<-block // the only slot is now held mid-request
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Extract(ctx, ExtractRequest{Site: "demo", Pages: f.serve}); !errors.Is(err, context.Canceled) {
		t.Errorf("queued request on cancelled ctx = %v, want context.Canceled", err)
	}
	close(release)
}

// TestTripleOrderMatchesValueSort holds tripleize (an index sort over
// extractions) and SortTriples (an index sort, then a move along the
// permutation's cycles) to the plain value sort they replaced, on random
// extractions drawn from small alphabets so that most comparisons tie on
// several fields.
func TestTripleOrderMatchesValueSort(t *testing.T) {
	valueSort := func(ts []Triple) {
		slices.SortFunc(ts, func(a, b Triple) int {
			switch {
			case a.Confidence > b.Confidence:
				return -1
			case a.Confidence < b.Confidence:
				return 1
			}
			for _, c := range []int{strings.Compare(a.Page, b.Page), strings.Compare(a.Predicate, b.Predicate),
				strings.Compare(a.Object, b.Object), strings.Compare(a.Subject, b.Subject)} {
				if c != 0 {
					return c
				}
			}
			return strings.Compare(a.Path, b.Path)
		})
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(prefix string) string { return fmt.Sprint(prefix, rng.Intn(3)) }
	for trial := 0; trial < 200; trial++ {
		exts := make([]core.Extraction, rng.Intn(60))
		for i := range exts {
			exts[i] = core.Extraction{PageID: pick("p"), Subject: pick("s"), Predicate: pick("r"), Value: pick("v"),
				Confidence: float64(rng.Intn(4)) / 4, Path: pick("/x")}
		}
		threshold := float64(rng.Intn(3)) / 4
		var want []Triple
		for _, e := range exts {
			if e.Confidence >= threshold {
				want = append(want, toTriple(e))
			}
		}
		shuffled := slices.Clone(want)
		valueSort(want)
		if got := tripleize(exts, threshold); !slices.Equal(got, want) {
			t.Fatalf("trial %d: tripleize = %v, want %v", trial, got, want)
		}
		SortTriples(shuffled)
		if !slices.Equal(shuffled, want) {
			t.Fatalf("trial %d: SortTriples = %v, want %v", trial, shuffled, want)
		}
	}
}

// TestTripleizeSubjectTieBreak is the regression test for the total triple
// order: equal-confidence extractions differing only in subject (or only
// in path) must sort deterministically.
func TestTripleizeSubjectTieBreak(t *testing.T) {
	exts := []core.Extraction{
		{PageID: "p1", Subject: "Zeta", Predicate: "directedBy", Value: "Ada Dahl", Confidence: 0.8, Path: "/html/body/div[2]"},
		{PageID: "p1", Subject: "Alpha", Predicate: "directedBy", Value: "Ada Dahl", Confidence: 0.8, Path: "/html/body/div[1]"},
		{PageID: "p1", Subject: "Alpha", Predicate: "directedBy", Value: "Ada Dahl", Confidence: 0.8, Path: "/html/body/div[3]"},
	}
	want := []string{"Alpha /html/body/div[1]", "Alpha /html/body/div[3]", "Zeta /html/body/div[2]"}
	for perm := 0; perm < 3; perm++ {
		exts = append(exts[1:], exts[0]) // rotate the input order
		got := tripleize(exts, 0)
		for i, tr := range got {
			if key := tr.Subject + " " + tr.Path; key != want[i] {
				t.Fatalf("rotation %d: order[%d] = %q, want %q", perm, i, key, want[i])
			}
		}
	}
}
