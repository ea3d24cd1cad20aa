package ceres

import (
	"bytes"
	"context"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"ceres/internal/heaptest"
)

// kbText is k's serialization, the bytes a kb.tsv holds.
func kbText(t *testing.T, k *KB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := k.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// countParses counts ReadKB calls until the test ends.
func countParses(t *testing.T) func() int {
	var mu sync.Mutex
	parses := 0
	read := ReadKB
	t.Cleanup(func() { ReadKB = read })
	ReadKB = func(r io.Reader) (*KB, error) {
		mu.Lock()
		parses++
		mu.Unlock()
		return read(r)
	}
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return parses
	}
}

// modelBytes trains p on pages and returns the model's serialization.
func modelBytes(t *testing.T, p *Pipeline, pages []PageSource) []byte {
	t.Helper()
	m, err := p.Train(context.Background(), pages)
	if err != nil {
		t.Error(err)
		return nil
	}
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		t.Error(err)
	}
	return buf.Bytes()
}

// holdsText reports whether p holds its KB's text and no index.
func holdsText(p *Pipeline) bool {
	p.kbMu.Lock()
	defer p.kbMu.Unlock()
	return p.ix == nil && p.kbText != nil
}

// liveHeap returns the bytes of heap live after a collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second empties the sync.Pools' victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestPipelineTSVTrainingKey: a pipeline built from a KB's text has the
// training key of one built over the parsed KB, under every option that
// moves the key, for the demo KB and for the crawl's seed KB.
func TestPipelineTSVTrainingKey(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	crawlKB, _ := crawlSites(t, 1)
	for name, k := range map[string]*KB{"demo": c.KB, "crawl": crawlKB} {
		text := kbText(t, k)
		for opt, opts := range map[string][]Option{
			"none":               nil,
			"WithMinAnnotations": {WithMinAnnotations(5)},
			"WithMode":           {WithMode(ModeTopicOnly)},
			"WithThreshold":      {WithThreshold(0.75)},
		} {
			parsed, err := ReadKB(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewPipelineTSV(text, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.TrainingKey(), NewPipeline(parsed, opts...).TrainingKey(); got != want {
				t.Errorf("%s KB, %s: NewPipelineTSV key %s, NewPipeline key %s", name, opt, got, want)
			}
		}
	}
}

// TestPipelineTSVHoldsText: until its first Train, a pipeline built from
// a KB's text holds the text and no parsed KB — little more heap than the
// text itself, where a parsed KB holds several times it. The first Train
// parses the text, trains the model a pipeline over the parsed KB trains,
// and leaves the pipeline holding the KB's index beside the text.
func TestPipelineTSVHoldsText(t *testing.T) {
	k, sites := crawlSites(t, 40)
	text := kbText(t, k)
	k = nil
	// retained is the heap a pipeline build adds to what was live before,
	// in multiples of the text's size.
	retained := func(build func() *Pipeline) (*Pipeline, float64) {
		base := liveHeap()
		p := build()
		return p, float64(liveHeap()-base) / float64(len(text))
	}
	p, ratio := retained(func() *Pipeline {
		p, err := NewPipelineTSV(text)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	ratio++ // the text pipeline also holds the text
	parsedPipeline, parsedRatio := retained(func() *Pipeline {
		parsed, err := ReadKB(bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return NewPipeline(parsed)
	})
	t.Logf("%d bytes of KB text: the text pipeline retains %.2fx, a parsed KB %.2fx", len(text), ratio, parsedRatio)
	if p.kb != nil || !holdsText(p) {
		t.Fatal("the text pipeline parsed its KB before any Train")
	}
	if ratio > 1.5 {
		t.Errorf("the text pipeline retains %.2fx its KB text, bound 1.5x", ratio)
	}
	if parsedRatio <= 1.5 {
		t.Fatalf("a parsed KB retains only %.2fx its text: the measure cannot tell the two apart", parsedRatio)
	}

	site := sites["themoviedb.org"]
	m, err := p.Train(context.Background(), site)
	if err != nil {
		t.Fatal(err)
	}
	if p.kb != nil || p.ix == nil || p.kbText == nil {
		t.Error("after Train the text pipeline does not hold its text and the KB's index")
	}
	want, err := parsedPipeline.Train(context.Background(), site)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantBytes bytes.Buffer
	if _, err := m.WriteBinary(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteBinary(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantBytes.Bytes()) {
		t.Error("the text pipeline trained different model bytes from a pipeline over the parsed KB")
	}
}

// TestPipelineTSVIndexLifecycle: after its first Train, a pipeline built
// from a KB's text holds the text and the KB's annotation index and no
// parsed KB — at most 2.5 times the text's bytes of heap, the text
// included, where holding the parsed KB beside its index took 5.6 times —
// and ReleaseKB drops the index, writing nothing back, to leave at most
// 1.5 times. The index holds no byte of the text or of the KB a Train
// parsed it from.
func TestPipelineTSVIndexLifecycle(t *testing.T) {
	k, sites := crawlSites(t, 40)
	text := kbText(t, k)
	k = nil
	site := sites["themoviedb.org"]
	base := liveHeap()
	p, err := NewPipelineTSV(text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(context.Background(), site); err != nil {
		t.Fatal(err)
	}
	trained := float64(liveHeap()-base)/float64(len(text)) + 1 // the text too
	heaptest.Walk("pipeline", reflect.ValueOf(p), func(path string, v reflect.Value) {
		if v.Kind() == reflect.Pointer && !v.IsNil() && v.Type() == reflect.TypeFor[*KB]() {
			t.Errorf("after Train the pipeline holds a parsed KB at %s", path)
		}
	})
	if p.ix == nil {
		t.Fatal("after Train the pipeline holds no index")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.ReleaseKB()
	runtime.ReadMemStats(&after)
	released := float64(liveHeap()-base)/float64(len(text)) + 1
	t.Logf("%d bytes of KB text: the pipeline retains %.2fx once trained, %.2fx once released", len(text), trained, released)
	if trained > 2.5 {
		t.Errorf("once trained the pipeline retains %.2fx its KB text, bound 2.5x", trained)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<10 {
		t.Errorf("ReleaseKB allocated %d bytes: it writes the KB back", n)
	}
	if released > 1.5 {
		t.Errorf("once released the pipeline retains %.2fx its KB text, bound 1.5x", released)
	}
	if !holdsText(p) {
		t.Error("after ReleaseKB the pipeline does not hold its text alone")
	}

	// The KBs ReadKB parses, kept for their strings' addresses.
	var parsed []*KB
	read := ReadKB
	t.Cleanup(func() { ReadKB = read })
	ReadKB = func(r io.Reader) (*KB, error) {
		k, err := read(r)
		parsed = append(parsed, k)
		return k, err
	}
	if _, err := p.Train(context.Background(), site); err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 {
		t.Fatalf("a Train after ReleaseKB parsed %d KBs, want 1", len(parsed))
	}
	within := []string{unsafe.String(unsafe.SliceData(text), len(text))}
	o := parsed[0].Ontology()
	for _, name := range o.Names() {
		pred, _ := o.Predicate(name)
		within = append(within, name, pred.Name, pred.Domain, pred.Range)
	}
	for _, id := range parsed[0].EntityIDs() {
		e, _ := parsed[0].Entity(id)
		within = append(append(within, e.ID, e.Type, e.Name), e.Aliases...)
	}
	for _, tr := range parsed[0].Triples() {
		within = append(within, tr.Subject, tr.Predicate, tr.Object.EntityID, tr.Object.Literal)
	}
	strs := heaptest.Strings(p.ix)
	if len(strs) == 0 {
		t.Fatal("the walk found no string in the index")
	}
	for _, s := range strs {
		if i := heaptest.PointsInto(s, within); i >= 0 {
			t.Errorf("the index's string %.40q shares bytes with the KB's %.40q", s, within[i])
		}
	}
	runtime.KeepAlive(parsed)
}

// TestPipelineTSVParsesOnce: eight Train calls at once on a fresh text
// pipeline parse its KB once between them, and each trains.
func TestPipelineTSVParsesOnce(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipelineTSV(kbText(t, c.KB))
	if err != nil {
		t.Fatal(err)
	}
	parses := countParses(t)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Train(context.Background(), c.Pages); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := parses(); n != 1 {
		t.Errorf("eight concurrent Train calls parsed the KB %d times, want 1", n)
	}
}

// unorderedKBText is k's serialization with its entity records in reverse
// order, a comment, blank lines and CRLF endings: a kb.tsv that reads as k
// but is not the bytes KB.Write writes.
func unorderedKBText(t *testing.T, k *KB) []byte {
	lines := strings.Split(strings.TrimSuffix(string(kbText(t, k)), "\n"), "\n")
	first, last := -1, -1
	for i, l := range lines {
		if strings.HasPrefix(l, "E\t") {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	for i, j := first, last; i < j; i, j = i+1, j-1 {
		lines[i], lines[j] = lines[j], lines[i]
	}
	text := "# a seed KB written by hand\r\n\n" + strings.Join(lines, "\r\n") + "\n\n"
	if text == string(kbText(t, k)) {
		t.Fatal("the unordered text is KB.Write's")
	}
	return []byte(text)
}

// TestPipelineTSVReleaseReparses: after ReleaseKB, a text pipeline holds
// the KB's text and no parsed KB; the next Train parses it exactly once
// and trains the model bytes the first Train trained, and those of a
// pipeline over the parsed KB, under the same key — for a kb.tsv whose
// records are not in KB.Write's order.
func TestPipelineTSVReleaseReparses(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	text := unorderedKBText(t, c.KB)
	parsed, err := ReadKB(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := modelBytes(t, NewPipeline(parsed), c.Pages)
	p, err := NewPipelineTSV(text)
	if err != nil {
		t.Fatal(err)
	}
	key := p.TrainingKey()
	if got := modelBytes(t, p, c.Pages); !bytes.Equal(got, want) {
		t.Fatal("the first Train trained different model bytes from a pipeline over the parsed KB")
	}
	p.ReleaseKB()
	if !holdsText(p) {
		t.Fatal("after ReleaseKB the text pipeline does not hold its text alone")
	}
	parses := countParses(t)
	if got := modelBytes(t, p, c.Pages); !bytes.Equal(got, want) {
		t.Error("a Train after ReleaseKB trained different model bytes")
	}
	if n := parses(); n != 1 {
		t.Errorf("a Train after ReleaseKB parsed the KB %d times, want 1", n)
	}
	if p.TrainingKey() != key {
		t.Error("ReleaseKB moved the training key")
	}
	p.ReleaseKB()
	p.ReleaseKB()
	if !holdsText(p) {
		t.Error("a second ReleaseKB lost the text")
	}
}

// TestPipelineTSVReleaseRacesTrain: ReleaseKB called over and over while
// eight Train calls run leaves each trained model as it would be alone,
// and the pipeline holding its text once all have returned.
func TestPipelineTSVReleaseRacesTrain(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	want := modelBytes(t, NewPipeline(c.KB), c.Pages)
	p, err := NewPipelineTSV(kbText(t, c.KB))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	released := make(chan struct{})
	go func() {
		defer close(released)
		for {
			select {
			case <-stop:
				return
			default:
				p.ReleaseKB()
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := modelBytes(t, p, c.Pages); !bytes.Equal(got, want) {
				t.Error("a Train racing ReleaseKB trained different model bytes")
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-released
	p.ReleaseKB()
	if !holdsText(p) {
		t.Error("after the last ReleaseKB the pipeline does not hold its text alone")
	}
}

// TestNewPipelineKeepsKB: ReleaseKB leaves a NewPipeline pipeline's KB,
// the caller's, where it is, and training after it parses nothing.
func TestNewPipelineKeepsKB(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(c.KB)
	want := modelBytes(t, p, c.Pages)
	parses := countParses(t)
	p.ReleaseKB()
	if p.kb != c.KB || p.kbText != nil {
		t.Fatal("ReleaseKB dropped a NewPipeline pipeline's KB")
	}
	if got := modelBytes(t, p, c.Pages); !bytes.Equal(got, want) {
		t.Error("a Train after ReleaseKB trained different model bytes")
	}
	if n := parses(); n != 0 {
		t.Errorf("a NewPipeline pipeline parsed a KB %d times", n)
	}
	var nilPipeline *Pipeline
	nilPipeline.ReleaseKB()
}

// TestNilKBPipeline: a pipeline over a nil KB has a training key, one
// that differs from an empty KB's, and its Train returns ErrNoSeedKB
// instead of panicking.
func TestNilKBPipeline(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(nil)
	if p.TrainingKey() == NewPipeline(NewKB(NewOntology())).TrainingKey() {
		t.Error("no KB keys as an empty KB")
	}
	if _, err := p.Train(context.Background(), c.Pages); !errors.Is(err, ErrNoSeedKB) {
		t.Errorf("Train over a nil KB = %v, want ErrNoSeedKB", err)
	}
	p.ReleaseKB()
	if _, err := p.Train(context.Background(), c.Pages); !errors.Is(err, ErrNoSeedKB) {
		t.Errorf("Train over a nil KB after ReleaseKB = %v, want ErrNoSeedKB", err)
	}
}

// TestPipelineTSVMalformed: malformed text fails the constructor with the
// error ReadKB gives it.
func TestPipelineTSVMalformed(t *testing.T) {
	for _, text := range []string{
		"P\tdirector\tfilm\n",
		"P\tdirector\tfilm\tperson\tsingle\nE\tf1\tfilm\tA Film\t\nT\tf1\tdirector\n",
		"P\tdirector\tfilm\tperson\tsingle\nT\tf1\tdirector\tl:x\n",
	} {
		_, want := ReadKB(strings.NewReader(text))
		if want == nil || !strings.HasPrefix(want.Error(), "kb: line ") {
			t.Fatalf("ReadKB(%q) = %v, want a line error", text, want)
		}
		p, err := NewPipelineTSV([]byte(text))
		if p != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("NewPipelineTSV(%q) = %v, %v; want ReadKB's %v", text, p, err, want)
		}
	}
}
