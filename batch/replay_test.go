package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ceres"
)

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// writeShards commits n shards of site "a/b", shard i holding per
// triples whose Page names the shard and whose Path the position.
func writeShards(t *testing.T, sink *JSONLSink, n, per int) []Shard {
	t.Helper()
	var shards []Shard
	for i := 0; i < n; i++ {
		sh := Shard{Site: "a/b", Index: i}
		w, err := sink.OpenShard(sh)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < per; j++ {
			if err := w.Write(ceres.Triple{Subject: "s", Predicate: "p", Object: "o", Confidence: 0.5, Page: fmt.Sprint(i), Path: fmt.Sprint(j)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	return shards
}

// TestJSONLSinkReplayOrderAndStop checks the replay from the outside:
// triples arrive in shard order then file order; an error from fn, a
// missing file and a corrupt line each end the replay with that error
// after exactly the triples before it; and in every case the loaders are
// gone when Replay returns.
func TestJSONLSinkReplayOrderAndStop(t *testing.T) {
	sink, err := NewJSONLSink(filepath.Join(t.TempDir(), "triples"))
	if err != nil {
		t.Fatal(err)
	}
	const n, per = 12, 5
	shards := writeShards(t, sink, n, per)
	base := runtime.NumGoroutine()

	replay := func(shards []Shard, failAt int) (int, error) {
		seen := 0
		err := sink.Replay(context.Background(), shards, func(site string, tr ceres.Triple) error {
			if site != "a/b" || tr.Page != fmt.Sprint(seen/per) || tr.Path != fmt.Sprint(seen%per) {
				t.Fatalf("triple %d is %q %+v", seen, site, tr)
			}
			if seen == failAt {
				return errStop
			}
			seen++
			return nil
		})
		waitGoroutines(t, base)
		return seen, err
	}

	if seen, err := replay(shards, -1); err != nil || seen != n*per {
		t.Fatalf("full replay: %d triples, %v", seen, err)
	}
	if got := sink.replayedBytes(); got == 0 {
		t.Error("a full replay counted no bytes")
	}
	for _, failAt := range []int{0, per - 1, per, 3*per + 2, n*per - 1} {
		if seen, err := replay(shards, failAt); !errors.Is(err, errStop) || seen != failAt {
			t.Errorf("fn failing at triple %d: replay delivered %d, returned %v", failAt, seen, err)
		}
	}

	// A missing shard file: everything before it is delivered, then the
	// error, naming the shard.
	gap := append(append([]Shard(nil), shards[:4]...), Shard{Site: "a/b", Index: 99})
	gap = append(gap, shards[4:]...)
	seen, err := replay(gap, -1)
	if err == nil || !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), "a/b/99") || seen != 4*per {
		t.Errorf("missing shard: delivered %d triples, error %v", seen, err)
	}

	// A corrupt line: the error names site, shard index and line.
	path := filepath.Join(sink.dir, shardFileName(shards[2]))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(good, []byte("\n"))
	corrupt := bytes.Join([][]byte{lines[0], lines[1], []byte("\n"), []byte(`{"Subject":"s","Confidence":"high"}` + "\n"), lines[2]}, nil)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	seen, err = replay(shards, -1)
	if err == nil || !strings.Contains(err.Error(), "shard a/b/2: line 4:") || seen != 2*per {
		t.Errorf("corrupt line: delivered %d triples, error %v", seen, err)
	}
}

// TestReplayErrorWaitsItsTurn holds a replay to its order when a later
// shard fails while an earlier one is being consumed: fn sees every triple
// before the failed shard, then the error naming it, and every loader has
// exited when the replay returns. Shard k's file is broken mid-replay,
// while shard k-loaders-1 is being consumed: k's loader cannot open the
// file before it has handed over shard k-loaders, which is taken only
// after that. At GOMAXPROCS 1 and 4. (par's TestOrderedErrorWaitsItsTurn
// holds par.Ordered itself to the same order.)
func TestReplayErrorWaitsItsTurn(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			loaders := runtime.GOMAXPROCS(0)
			base := runtime.NumGoroutine()

			sink, err := NewJSONLSink(filepath.Join(t.TempDir(), "triples"))
			if err != nil {
				t.Fatal(err)
			}
			const n, per = 12, 5
			shards := writeShards(t, sink, n, per)
			k := loaders + 2
			path := filepath.Join(sink.dir, shardFileName(shards[k]))
			good, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(good, []byte("\n"))
			corrupt := slices.Concat(lines[0], lines[1], []byte(`{"Subject":"s","Confidence":"high"}`+"\n"))
			seen := 0
			err = sink.Replay(context.Background(), shards, func(site string, tr ceres.Triple) error {
				if seen == (k-loaders-1)*per {
					if err := os.WriteFile(path, corrupt, 0o644); err != nil {
						return err
					}
				}
				if tr.Page != fmt.Sprint(seen/per) || tr.Path != fmt.Sprint(seen%per) {
					return fmt.Errorf("triple %d is %+v", seen, tr)
				}
				seen++
				return nil
			})
			waitGoroutines(t, base)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard a/b/%d: line 3:", k)) || seen != k*per {
				t.Fatalf("shard %d broken mid-replay: delivered %d triples, error %v", k, seen, err)
			}
		})
	}
}

var errStop = errors.New("stop here")

// teeSink commits every shard to both of its sinks.
type teeSink struct{ a, b TripleSink }

func (s teeSink) OpenShard(sh Shard) (ShardWriter, error) {
	wa, err := s.a.OpenShard(sh)
	if err != nil {
		return nil, err
	}
	wb, err := s.b.OpenShard(sh)
	if err != nil {
		wa.Abort()
		return nil, err
	}
	return teeShard{wa, wb}, nil
}

func (s teeSink) Sync() error { return errors.Join(s.a.Sync(), s.b.Sync()) }

func (s teeSink) Replay(ctx context.Context, shards []Shard, fn func(site string, t ceres.Triple) error) error {
	return s.a.(Replayer).Replay(ctx, shards, fn)
}

type teeShard struct{ a, b ShardWriter }

func (w teeShard) Write(t ceres.Triple) error { return errors.Join(w.a.Write(t), w.b.Write(t)) }
func (w teeShard) Commit() error              { return errors.Join(w.a.Commit(), w.b.Commit()) }
func (w teeShard) Abort() error               { return errors.Join(w.a.Abort(), w.b.Abort()) }

// TestShardFilesGolden harvests the crawl fixture into a JSONL sink and,
// beside it, an in-memory one, and holds every shard file to the bytes a
// json.Encoder loop over the same triples writes — the format the files
// had before the sink had an encoder of its own, and still have. The
// fused facts of the run are then what fusing the in-memory triples
// gives, bit for bit.
func TestShardFilesGolden(t *testing.T) {
	f := newCrawlFixture(t, t.TempDir(), fixtureSites)
	jsonl, err := NewJSONLSink(filepath.Join(t.TempDir(), "triples"))
	if err != nil {
		t.Fatal(err)
	}
	mem := NewCollectSink()
	r, err := NewRunner(Config{Provider: f.store, Sink: teeSink{jsonl, mem}, Pipeline: f.pipeline})
	if err != nil {
		t.Fatal(err)
	}
	job := Job{ShardPages: 4, Workers: 3, Fuse: true}
	rep, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.shards) < 4 || rep.Triples == 0 {
		t.Fatalf("fixture too thin: %d shards, %d triples", len(mem.shards), rep.Triples)
	}
	files := dirContents(t, jsonl.dir)
	if len(files) != len(mem.shards) {
		t.Fatalf("%d shard files for %d committed shards", len(files), len(mem.shards))
	}
	var done []Shard
	for _, sh := range mustPlan(t, job, f).Shards {
		triples, ok := mem.shards[sh]
		if !ok {
			continue // a skipped site's shard
		}
		done = append(done, sh)
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		for _, tr := range triples {
			if err := enc.Encode(tr); err != nil {
				t.Fatal(err)
			}
		}
		if got := files[shardFileName(sh)]; !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("shard file %s:\n got %.300q\nwant %.300q", shardFileName(sh), got, want.Bytes())
		}
	}
	fuser := ceres.NewFuser(job.Fusion)
	if err := mem.Replay(context.Background(), done, func(site string, tr ceres.Triple) error {
		fuser.ObserveTriple(site, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := fuser.Facts(); !reflect.DeepEqual(rep.Facts, want) {
		t.Fatalf("facts fused from the shard files differ from facts fused from memory (%d vs %d)", len(rep.Facts), len(want))
	}
}

// TestReplayNonCanonicalShard replays a shard file nobody's encoder
// wrote — keys out of order and in other cases, letters as \u00XX
// escapes, an unknown key, null fields, a blank line, CRLF, no newline at
// the end — and expects the values json.Unmarshal gives for each line.
func TestReplayNonCanonicalShard(t *testing.T) {
	sink, err := NewJSONLSink(filepath.Join(t.TempDir(), "triples"))
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		`{"Path":"/html[1]/p[1]","Page":"pg1","Confidence":0.75,"Object":"o","Predicate":"p","Subject":"s1"}`,
		`  { "subject" : "\u0041\u0062\u0063 \u003cb\u003e" , "PREDICATE":"p\u0032", "Object":"caf\u00e9 \ud83d\ude00", "note":{"by":["hand",1,null]}, "Confidence":7.5e-1 }  ` + "\r",
		``,
		`{"Subject":null,"Predicate":"p","Object":null,"Confidence":null,"Page":null,"Path":"x","Path":null}`,
		" \t",
		`null`,
		`{"Subject":"last line, no newline","Confidence":1}`,
	}
	sh := Shard{Site: "hand.example", Index: 3}
	if err := os.WriteFile(filepath.Join(sink.dir, shardFileName(sh)), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var want []ceres.Triple
	for _, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var tr ceres.Triple
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("encoding/json refuses %q: %v", line, err)
		}
		want = append(want, tr)
	}
	var got []ceres.Triple
	if err := sink.Replay(context.Background(), []Shard{sh}, func(site string, tr ceres.Triple) error {
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed\n %+v\nencoding/json has\n %+v", got, want)
	}
	if want[1].Subject != "Abc <b>" || want[1].Object != "café 😀" || want[2].Path != "x" {
		t.Fatalf("the reference values are not the ones intended: %+v", want)
	}
}
