package ceres

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
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
// and leaves the pipeline holding the KB and not the text.
func TestPipelineTSVHoldsText(t *testing.T) {
	k, sites := crawlSites(t, 40)
	text := kbText(t, k)
	k = nil
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	// retained is the heap a pipeline build adds to what was live before,
	// in multiples of the text's size.
	retained := func(build func() *Pipeline) (*Pipeline, float64) {
		base := live()
		p := build()
		return p, float64(live()-base) / float64(len(text))
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
	if p.kb != nil || p.kbText == nil {
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
	if p.kb == nil || p.kbText != nil {
		t.Error("after Train the text pipeline does not hold the KB alone")
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
	var mu sync.Mutex
	parses := 0
	defer func(read func(io.Reader) (*KB, error)) { ReadKB = read }(ReadKB)
	read := ReadKB
	ReadKB = func(r io.Reader) (*KB, error) {
		mu.Lock()
		parses++
		mu.Unlock()
		return read(r)
	}
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
	if parses != 1 {
		t.Errorf("eight concurrent Train calls parsed the KB %d times, want 1", parses)
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
