package ceres

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// trainServeFixture splits a demo corpus into a training half and a
// serving half and trains a model once for the serving-path tests.
type trainServeFixture struct {
	corpus *Corpus
	train  []PageSource
	serve  []PageSource
	model  *SiteModel
}

var tsFixture *trainServeFixture

func getTrainServeFixture(t *testing.T) *trainServeFixture {
	t.Helper()
	if tsFixture != nil {
		return tsFixture
	}
	c, err := DemoCorpus("movies", 7, 60)
	if err != nil {
		t.Fatal(err)
	}
	f := &trainServeFixture{corpus: c}
	for i, p := range c.Pages {
		if i%2 == 0 {
			f.train = append(f.train, p)
		} else {
			f.serve = append(f.serve, p)
		}
	}
	f.model, err = NewPipeline(c.KB).Train(context.Background(), f.train)
	if err != nil {
		t.Fatal(err)
	}
	tsFixture = f
	return f
}

// TestTrainDeterministic: training the same pages yields the same model
// bytes, run over run and whatever the scheduler's parallelism. Batch
// harvests depend on it — a cold pass must fuse to the same fused.jsonl
// as the one before it — and the fit is where it could break: the L-BFGS
// objective sums over collapsed rows, whose order must never come from a
// map.
func TestTrainDeterministic(t *testing.T) {
	f := getTrainServeFixture(t)
	train := func() []byte {
		m, err := NewPipeline(f.corpus.KB).Train(context.Background(), f.train)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Fits()) != m.TrainedClusters() {
			t.Fatalf("%d fits reported for %d trained clusters", len(m.Fits()), m.TrainedClusters())
		}
		var buf bytes.Buffer
		if _, err := m.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	want := train()
	if !bytes.Equal(train(), want) {
		t.Error("two Train calls on the same pages wrote different model bytes")
	}
	runtime.GOMAXPROCS(1)
	if !bytes.Equal(train(), want) {
		t.Error("Train under GOMAXPROCS=1 wrote different model bytes than under NumCPU")
	}
}

// sortTriplesFull orders triples by every field so multisets compare
// regardless of arrival order.
func sortTriplesFull(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.Page != b.Page {
			return a.Page < b.Page
		}
		if a.Predicate != b.Predicate {
			return a.Predicate < b.Predicate
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Path < b.Path
	})
}

func TestTrainThenExtractUnseenPages(t *testing.T) {
	f := getTrainServeFixture(t)
	res, err := f.model.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) == 0 {
		t.Fatal("no triples from pages unseen at training time")
	}
	if res.Pages != len(f.serve) {
		t.Errorf("Result.Pages = %d, want %d", res.Pages, len(f.serve))
	}
	prec, rec, _ := f.corpus.Score(res.Triples)
	t.Logf("serve half: %d triples, P=%.3f R(full corpus)=%.3f", len(res.Triples), prec, rec)
	if prec < 0.85 {
		t.Errorf("serving precision %.3f below 0.85", prec)
	}
}

func TestSiteModelSerializationRoundTrip(t *testing.T) {
	f := getTrainServeFixture(t)
	var buf bytes.Buffer
	n, err := f.model.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadSiteModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Threshold() != f.model.Threshold() {
		t.Errorf("threshold %.3f did not round-trip (%.3f)", f.model.Threshold(), loaded.Threshold())
	}
	if loaded.TemplateClusters() != f.model.TemplateClusters() ||
		loaded.TrainedClusters() != f.model.TrainedClusters() ||
		loaded.TrainPages() != f.model.TrainPages() {
		t.Errorf("model shape did not round-trip")
	}

	// The reloaded model must extract identically from unseen pages.
	want, err := f.model.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Triples, got.Triples) {
		t.Fatalf("reloaded model extractions diverge: %d vs %d triples", len(want.Triples), len(got.Triples))
	}

	// A second serialization of the reloaded model is byte-identical:
	// the format is fully deterministic.
	var buf2 bytes.Buffer
	if _, err := loaded.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("serialization is not deterministic (%d vs %d bytes)", buf.Len(), buf2.Len())
	}
}

func TestReadSiteModelRejectsGarbage(t *testing.T) {
	if _, err := ReadSiteModel(strings.NewReader("not json")); err == nil {
		t.Errorf("garbage input should fail")
	}
	if _, err := ReadSiteModel(strings.NewReader(`{"format":"bogus/9"}`)); err == nil {
		t.Errorf("unknown format should fail")
	}
	if _, err := ReadSiteModel(strings.NewReader(`{"format":"ceres.sitemodel/1"}`)); err == nil {
		t.Errorf("missing model payload should fail")
	}

	// A structurally valid file whose feature dictionary was truncated
	// below the classifier's feature count must fail at load, not
	// mis-score at serve time.
	f := getTrainServeFixture(t)
	var buf bytes.Buffer
	if _, err := f.model.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	dict := doc["model"].(map[string]any)["Clusters"].([]any)[0].(map[string]any)["Model"].(map[string]any)["Featurizer"].(map[string]any)["Dict"].(map[string]any)
	dict["Names"] = dict["Names"].([]any)[:1]
	corrupted, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSiteModel(bytes.NewReader(corrupted)); err == nil {
		t.Errorf("truncated feature dictionary should fail at load")
	}
}

func TestExtractStreamMatchesExtract(t *testing.T) {
	f := getTrainServeFixture(t)
	want, err := f.model.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	var got []Triple
	err = f.model.ExtractStream(context.Background(), f.serve, func(tr Triple) error {
		got = append(got, tr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSorted := append([]Triple(nil), want.Triples...)
	sortTriplesFull(wantSorted)
	sortTriplesFull(got)
	if !reflect.DeepEqual(wantSorted, got) {
		t.Fatalf("stream emitted %d triples, Extract returned %d, or contents differ", len(got), len(wantSorted))
	}
}

func TestExtractStreamEmitErrorStopsStream(t *testing.T) {
	f := getTrainServeFixture(t)
	boom := errors.New("boom")
	calls := 0
	err := f.model.ExtractStream(context.Background(), f.serve, func(Triple) error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want boom", err)
	}
	if calls != 3 {
		t.Errorf("emit called %d times after error, want exactly 3", calls)
	}
}

func TestContextCancellation(t *testing.T) {
	f := getTrainServeFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := NewPipeline(f.corpus.KB).Train(ctx, f.train); !errors.Is(err, context.Canceled) {
		t.Errorf("Train on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := f.model.Extract(ctx, f.serve); !errors.Is(err, context.Canceled) {
		t.Errorf("Extract on cancelled ctx = %v, want context.Canceled", err)
	}
	err := f.model.ExtractStream(ctx, f.serve, func(Triple) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("ExtractStream on cancelled ctx = %v, want context.Canceled", err)
	}
	h := NewHarvester(NewPipeline(f.corpus.KB))
	if _, err := h.Harvest(ctx, []SiteInput{{Site: "s", Pages: f.train}}); !errors.Is(err, context.Canceled) {
		t.Errorf("Harvest on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	f := getTrainServeFixture(t)
	ctx := context.Background()

	if _, err := NewPipeline(f.corpus.KB).Train(ctx, nil); !errors.Is(err, ErrNoPages) {
		t.Errorf("Train(nil) = %v, want ErrNoPages", err)
	}
	if _, err := f.model.Extract(ctx, nil); !errors.Is(err, ErrNoPages) {
		t.Errorf("Extract(nil) = %v, want ErrNoPages", err)
	}

	var untrained SiteModel
	if _, err := untrained.Extract(ctx, f.serve); !errors.Is(err, ErrNotTrained) {
		t.Errorf("zero SiteModel Extract = %v, want ErrNotTrained", err)
	}
	if err := untrained.ExtractStream(ctx, f.serve, func(Triple) error { return nil }); !errors.Is(err, ErrNotTrained) {
		t.Errorf("zero SiteModel ExtractStream = %v, want ErrNotTrained", err)
	}

	// A KB from a disjoint world aligns nothing.
	other, err := DemoCorpus("movies", 99, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(other.KB).Train(ctx, f.train); !errors.Is(err, ErrNoAnnotations) {
		t.Errorf("Train with disjoint KB = %v, want ErrNoAnnotations", err)
	}
}

func TestHarvesterMultiSite(t *testing.T) {
	ctx := context.Background()
	cA, err := DemoCorpus("movies", 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := DemoCorpus("imdb-films", 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarvester(NewPipeline(cA.KB), WithSiteConcurrency(2))
	results, err := h.Harvest(ctx, []SiteInput{
		{Site: "a", Pages: cA.Pages},
		{Site: "b", Pages: cB.Pages, Pipeline: NewPipeline(cB.KB)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"a", "b"} {
		if res := results[site]; res == nil || len(res.Triples) == 0 {
			t.Fatalf("site %q produced no result", site)
		}
	}
	if got := h.Sites(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Sites() = %v", got)
	}
	fused := h.Fuse(FusionOptions{})
	if len(fused) == 0 {
		t.Fatal("harvester fusion produced nothing")
	}
	// Serving an unregistered site fails with the sentinel.
	if _, err := h.Extract(ctx, "nope", cA.Pages); !errors.Is(err, ErrNotTrained) {
		t.Errorf("Extract on unregistered site = %v, want ErrNotTrained", err)
	}
}

// TestHarvestRejectsDuplicateSites: two inputs naming the same site used
// to race, the later one silently overwriting the earlier result and model
// mid-flight; now the harvest refuses up front with a typed error.
func TestHarvestRejectsDuplicateSites(t *testing.T) {
	f := getTrainServeFixture(t)
	h := NewHarvester(NewPipeline(f.corpus.KB))
	_, err := h.Harvest(context.Background(), []SiteInput{
		{Site: "a", Pages: f.train},
		{Site: "b", Pages: f.train},
		{Site: "a", Pages: f.serve},
	})
	var dup *DuplicateSiteError
	if !errors.As(err, &dup) {
		t.Fatalf("duplicate-site harvest = %v, want DuplicateSiteError", err)
	}
	if dup.Site != "a" {
		t.Errorf("duplicate site = %q, want %q", dup.Site, "a")
	}
	// Nothing ran: the error precedes any training.
	if got := h.Sites(); len(got) != 0 {
		t.Errorf("failed harvest still produced results for %v", got)
	}
}

// TestHarvesterPublishesIntoRegistry: the harvester is a training
// front-end over the serving registry — trained models are immediately
// servable through its Service.
func TestHarvesterPublishesIntoRegistry(t *testing.T) {
	f := getTrainServeFixture(t)
	reg := NewRegistry()
	h := NewHarvester(NewPipeline(f.corpus.KB), WithHarvesterRegistry(reg))
	if _, err := h.Train(context.Background(), "demo", f.train); err != nil {
		t.Fatal(err)
	}
	e, ok := reg.Lookup("demo")
	if !ok || e.Version != 1 {
		t.Fatalf("trained site not in shared registry: %+v, %v", e, ok)
	}
	resp, err := h.Service().Extract(context.Background(), ExtractRequest{Site: "demo", Pages: f.serve})
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Extract(context.Background(), "demo", f.serve)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Triples, want.Triples) {
		t.Fatal("service and harvester extract differently from the same registry")
	}
}

func TestFuseDeterministic(t *testing.T) {
	f := getTrainServeFixture(t)
	resA, err := f.model.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	// Several site names around the same result exercise map-order
	// sensitivity; repeated runs must agree exactly.
	results := map[string]*Result{
		"zeta": resA, "alpha": resA, "mid": resA, "nil-site": nil,
	}
	first := Fuse(results, FusionOptions{})
	for i := 0; i < 5; i++ {
		again := Fuse(results, FusionOptions{})
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("Fuse output differs across runs (run %d)", i)
		}
	}
	// Sources inside each fact are reported in sorted site order.
	for _, fact := range first {
		if !sort.StringsAreSorted(fact.Sources) {
			t.Fatalf("fact sources not sorted: %v", fact.Sources)
		}
	}
}
