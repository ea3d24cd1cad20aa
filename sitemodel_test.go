package ceres

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ceres/internal/binmodel"
	"ceres/internal/core"
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
// bytes, run over run and whatever the scheduler's parallelism or the
// trainer's worker count (which follows the training host's cores). Batch
// harvests depend on it — a cold pass must fuse to the same fused.jsonl
// as the one before it — and the fit is where it could break: the L-BFGS
// objective sums over collapsed rows, whose order must never come from a
// map.
func TestTrainDeterministic(t *testing.T) {
	f := getTrainServeFixture(t)
	train := func(workers int) []byte {
		p := NewPipeline(f.corpus.KB)
		p.cfg.Workers = workers
		m, err := p.Train(context.Background(), f.train)
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
	want := train(0)
	if !bytes.Equal(train(0), want) {
		t.Error("two Train calls on the same pages wrote different model bytes")
	}
	if !bytes.Equal(train(1), want) || !bytes.Equal(train(3), want) {
		t.Error("Train with 1 or 3 workers wrote different model bytes than with the host's default")
	}
	runtime.GOMAXPROCS(1)
	if !bytes.Equal(train(0), want) {
		t.Error("Train under GOMAXPROCS=1 wrote different model bytes than under NumCPU")
	}
}

// TestReadsModelWrittenWithWorkers: a file from before the trainer's
// worker count left the format (a committed fuzz seed: a model trained on
// a two-core host, which carries the count as tag 2) still loads and
// serves, and its re-encoding is that file without the field's two bytes.
func TestReadsModelWrittenWithWorkers(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzReadSiteModel/trained-lr")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(string(raw), "[]byte(")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
	if err != nil {
		t.Fatal(err)
	}
	old, field := []byte(s), []byte{2 << 3, 2 << 1} // key (tag 2, varint), zigzag(2)
	if !bytes.Contains(old[:40], field) {
		t.Fatal("the seed no longer carries tag 2 at the head of its site message")
	}
	m, err := ReadSiteModel(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("a model file with the worker count does not load: %v", err)
	}
	var enc bytes.Buffer
	if _, err := m.WriteBinary(&enc); err != nil {
		t.Fatal(err)
	}
	if enc.Len() != len(old)-len(field) {
		t.Fatalf("re-encoded to %d bytes, want %d less the field's %d", enc.Len(), len(old), len(field))
	}
	c, err := DemoCorpus("movies", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Extract(context.Background(), c.Pages); err != nil || res.Pages != len(c.Pages) {
		t.Fatalf("the loaded model served %v, %v", res, err)
	}
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
	n, err := f.model.WriteBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteBinary reported %d bytes, wrote %d", n, buf.Len())
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
	if _, err := loaded.WriteBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("serialization is not deterministic (%d vs %d bytes)", buf.Len(), buf2.Len())
	}
}

func TestReadSiteModelRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "not a model", `{"format":"ceres.sitemodel/2","threshold":0.5,"model":{}}`} {
		if _, err := ReadSiteModel(strings.NewReader(in)); !errors.Is(err, binmodel.ErrBadMagic) {
			t.Errorf("ReadSiteModel(%q) = %v, want ErrBadMagic", in, err)
		}
	}

	// A model file written when the naive-Bayes ablation could be saved
	// carries its classifier under a tag readers skip: it has none.
	nb, err := os.ReadFile("internal/binmodel/testdata/trained-nb.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSiteModel(bytes.NewReader(nb)); err == nil || !strings.Contains(err.Error(), "exactly one classifier") {
		t.Errorf("a naive-Bayes model file: ReadSiteModel = %v, want the one-classifier error", err)
	}

	// A structurally valid file whose parts disagree must fail at load,
	// not mis-score — or panic — at serve time: feature names cut below the
	// classifier's feature count, a weight matrix one feature wider than
	// the names, feature windows no walk could have trained with, and
	// a feature name that fits no free slot of the featurizer's tables.
	f := getTrainServeFixture(t)
	rename := func(names ...string) func(*core.ModelState) {
		return func(ms *core.ModelState) { copy(ms.Featurizer.Names, names) }
	}
	lies := map[string]func(*core.ModelState){
		"truncated names": func(ms *core.ModelState) {
			ms.Featurizer.Names = ms.Featurizer.Names[:1]
		},
		"LR one feature past the names": func(ms *core.ModelState) {
			lr := *ms.LR // the state shares the live model's classifier
			lr.NumFeatures = len(ms.Featurizer.Names) + 1
			lr.W = make([]float64, lr.NumClasses*lr.NumFeatures)
			ms.LR = &lr
		},
		"negative sibling window":     func(ms *core.ModelState) { ms.Featurizer.Opts.SiblingWindow = -1 },
		"a billion ancestor levels":   func(ms *core.ModelState) { ms.Featurizer.Opts.MaxAncestors = 1 << 30 },
		"level past the ancestors":    rename("s|6|0|tag|div"),
		"offset past the window":      rename("s|0|-6|tag|div"),
		"text at a following sibling": rename("t|1|1|Director"),
		"unknown feature family":      rename("x|0|0|tag|div"),
		"non-integer level":           rename("s|one|0|tag|div"),
		"two names for one slot":      rename("s|+0|0|tag|a", "s|0|0|tag|a"),
	}
	for name, lie := range lies {
		st := f.model.sm.State()
		lie(st.Clusters[0].Model)
		data := binmodel.Append(nil, 0.5, st)
		if _, err := ReadSiteModel(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: loaded without error", name)
		}
	}

	// Level-0 own text is a name no walk emits, but it has a slot: the
	// file loads and writes back the bytes it was read from.
	st := f.model.sm.State()
	ms := st.Clusters[0].Model
	ms.Featurizer.Names = append(ms.Featurizer.Names, "t|0|0|x")
	data := binmodel.Append(nil, 0.5, st)
	m, err := ReadSiteModel(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("a level-0 own-text feature: %v", err)
	}
	var again bytes.Buffer
	if _, err := m.WriteBinary(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), data) {
		t.Errorf("a level-0 own-text feature re-encodes to other bytes (%d vs %d)", again.Len(), len(data))
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

	// A KB from a disjoint world aligns nothing.
	other, err := DemoCorpus("movies", 99, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(other.KB).Train(ctx, f.train); !errors.Is(err, ErrNoAnnotations) {
		t.Errorf("Train with disjoint KB = %v, want ErrNoAnnotations", err)
	}
}

// TestFuseDeterministic: fusing the same triples in the same order gives
// exactly the same facts run after run, and a fact lists its sources
// sorted whatever order they were observed in.
func TestFuseDeterministic(t *testing.T) {
	f := getTrainServeFixture(t)
	res, err := f.model.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	fuse := func() []FusedFact {
		fz := NewFuser(FusionOptions{})
		for _, site := range []string{"zeta", "alpha", "mid"} {
			for _, tr := range res.Triples {
				fz.ObserveTriple(site, tr)
			}
		}
		return fz.Facts()
	}
	first := fuse()
	if len(first) == 0 {
		t.Fatal("fusion produced nothing")
	}
	for i := 0; i < 5; i++ {
		if again := fuse(); !reflect.DeepEqual(first, again) {
			t.Fatalf("fused facts differ across runs (run %d)", i)
		}
	}
	for _, fact := range first {
		if !sort.StringsAreSorted(fact.Sources) {
			t.Fatalf("fact sources not sorted: %v", fact.Sources)
		}
	}
}
