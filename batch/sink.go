package batch

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ceres"
	"ceres/internal/fsatomic"
	"ceres/internal/jsonl"
	"ceres/internal/par"
)

// TripleSink receives a harvest's extracted triples, one writer per
// shard. A sink must tolerate concurrent OpenShard calls (one per
// in-flight shard) and must make a shard's output visible atomically at
// Commit: a shard that never commits — crash, cancellation — must leave
// no partial output, because the checkpoint will re-run it after a
// resume.
type TripleSink interface {
	OpenShard(s Shard) (ShardWriter, error)
	// Sync makes every Commit that has returned survive a power loss. The
	// runner calls it once per batch of commits, before the checkpoint
	// names any shard of the batch; a sink with nothing to flush returns
	// nil.
	Sync() error
}

// ShardWriter accumulates one shard's triples. Exactly one of Commit or
// Abort terminates it; Write is never called concurrently on one writer,
// and Commit or Abort may come from another goroutine than the Writes
// did (the runner's commit stage).
type ShardWriter interface {
	Write(t ceres.Triple) error
	// Commit publishes the shard's triples atomically (replacing the
	// output of any previous attempt at the same shard).
	Commit() error
	// Abort discards everything written.
	Abort() error
}

// Replayer is implemented by sinks that can stream committed triples
// back, shard by shard — what the fusion stage and resumed runs consume.
// Replay must stream in the given shard order, error on a shard whose
// output is missing, and stop with ctx.Err() between shards once ctx is
// cancelled.
type Replayer interface {
	Replay(ctx context.Context, shards []Shard, fn func(site string, t ceres.Triple) error) error
}

// shardFileName is the committed output file of one shard.
func shardFileName(s Shard) string {
	return fmt.Sprintf("%s.%05d.jsonl", url.PathEscape(s.Site), s.Index)
}

// JSONLSink persists each shard as one JSON-lines file
// (<escaped-site>.<index>.jsonl) in a directory, written to a temp file,
// fsynced and renamed into place on Commit, the renames made durable by
// Sync — the durable sink of a crawl-scale harvest, and a Replayer, so
// fusion and resumed runs can stream every committed triple back without
// holding them in memory. The lines are
// encoding/json's encoding of ceres.Triple, byte for byte, written and
// read by internal/jsonl (DESIGN.md §8).
type JSONLSink struct {
	dir string
	// bufs recycles shard write buffers (*[]byte) between shards.
	bufs sync.Pool
	// loaders recycles replay loader state (*shardLoader) between Replays.
	loaders sync.Pool
	// replayed is the size of the shard files the last Replay read.
	replayed atomic.Int64
}

// NewJSONLSink opens (creating if needed) a sharded JSONL sink rooted at
// dir. Stale shard temp files — what a killed process's in-flight shards
// leave behind — are swept on open; only one process may sink into a
// directory at a time (which the batch checkpoint protocol already
// assumes).
func NewJSONLSink(dir string) (*JSONLSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("batch: opening sink: %w", err)
	}
	fsatomic.RemoveTemps(dir, ".shard-")
	return &JSONLSink{dir: dir}, nil
}

// shardFlushBytes is how much encoded output a shard writer gathers
// before it writes it to the temp file.
const shardFlushBytes = 64 << 10

// OpenShard implements TripleSink.
func (s *JSONLSink) OpenShard(sh Shard) (ShardWriter, error) {
	tmp, err := fsatomic.CreateTemp(s.dir, ".shard-*")
	if err != nil {
		return nil, fmt.Errorf("batch: opening shard output: %w", err)
	}
	bufp, _ := s.bufs.Get().(*[]byte)
	if bufp == nil {
		bufp = new([]byte)
		*bufp = make([]byte, 0, shardFlushBytes+4<<10)
	}
	*bufp = (*bufp)[:0]
	return &jsonlShard{
		sink:  s,
		f:     tmp,
		bufp:  bufp,
		final: filepath.Join(s.dir, shardFileName(sh)),
	}, nil
}

// Sync implements TripleSink: one directory flush makes every shard
// rename since the last one durable.
func (s *JSONLSink) Sync() error {
	if err := fsatomic.SyncDir(s.dir); err != nil {
		return fmt.Errorf("batch: flushing sink directory: %w", err)
	}
	return nil
}

type jsonlShard struct {
	sink    *JSONLSink
	f       *fsatomic.File
	bufp    *[]byte // encoded lines not yet written; back to sink.bufs at Commit or Abort
	final   string
	written int64 // bytes handed to f
}

func (w *jsonlShard) Write(t ceres.Triple) error {
	buf, err := jsonl.AppendTriple(*w.bufp, &t)
	if err != nil {
		return fmt.Errorf("batch: writing shard output: %w", err)
	}
	*w.bufp = buf
	if len(buf) >= shardFlushBytes {
		if err := w.flush(); err != nil {
			return fmt.Errorf("batch: writing shard output: %w", err)
		}
	}
	return nil
}

func (w *jsonlShard) flush() error {
	n, err := w.f.Write(*w.bufp)
	w.written += int64(n)
	*w.bufp = (*w.bufp)[:0]
	return err
}

// writtenBytes reports the size of the shard file (the runner's commit
// span carries it).
func (w *jsonlShard) writtenBytes() int64 { return w.written }

// release ends the writer's use of its buffer.
func (w *jsonlShard) release() {
	w.sink.bufs.Put(w.bufp)
	w.bufp = nil
}

func (w *jsonlShard) Commit() error {
	err := w.flush()
	w.release()
	if err != nil {
		w.f.Abort()
		return fmt.Errorf("batch: committing shard output: %w", err)
	}
	if err := w.f.Commit(w.final); err != nil {
		return fmt.Errorf("batch: committing shard output: %w", err)
	}
	return nil
}

func (w *jsonlShard) Abort() error {
	w.release()
	return w.f.Abort()
}

// shardBatch is one shard read back: its decoded triples, or why it
// could not be read.
type shardBatch struct {
	triples []ceres.Triple
	bytes   int64
	err     error
}

// shardLoader is one replay loader's own state: the decoder, whose string
// table is worth keeping warm, and the buffer shard files are read into.
type shardLoader struct {
	dec  jsonl.TripleDecoder
	file []byte
}

// Replay implements Replayer: stream the committed files of the given
// shards, in order. One par.Ordered loader per core (runtime.GOMAXPROCS)
// reads and decodes: loader w takes the shards i ≡ w (mod loaders), each
// into one of two recycled batches of its own, while fn consumes the
// shards strictly in the given order on the caller's goroutine — so at
// most two decoded shards per loader exist at any time, however long the
// crawl. A cancelled ctx ends the replay with ctx.Err() before the next
// shard. Each file is read whole into its loader's buffer and decoded line
// by line (blank lines skipped) with its loader's decoder; both are reused
// from one Replay to the next. A line encoding/json would refuse is an
// error naming the shard and line, and like a missing file it ends the
// replay when the shard's turn comes, after every triple before it.
func (s *JSONLSink) Replay(ctx context.Context, shards []Shard, fn func(site string, t ceres.Triple) error) error {
	loaders := make([]*shardLoader, min(runtime.GOMAXPROCS(0), len(shards)))
	for w := range loaders {
		l, _ := s.loaders.Get().(*shardLoader)
		if l == nil {
			l = new(shardLoader)
		}
		loaders[w] = l
	}
	var total int64
	err := par.Ordered(ctx, len(shards), len(loaders),
		func(w, i int, b *shardBatch) {
			l, sh := loaders[w], shards[i]
			b.triples, b.err = b.triples[:0], nil
			if l.file, b.err = readFileInto(l.file, filepath.Join(s.dir, shardFileName(sh))); b.err == nil {
				b.bytes = int64(len(l.file))
				b.triples, b.err = decodeShard(&l.dec, l.file, b.triples)
			}
			if b.err != nil {
				b.err = fmt.Errorf("batch: replaying shard %s/%d: %w", sh.Site, sh.Index, b.err)
			}
		},
		func(i int, b *shardBatch) error {
			if b.err != nil {
				return b.err
			}
			total += b.bytes
			for j := range b.triples {
				if err := fn(shards[i].Site, b.triples[j]); err != nil {
					return err
				}
			}
			return nil
		})
	for _, l := range loaders {
		s.loaders.Put(l)
	}
	s.replayed.Store(total)
	return err
}

// replayedBytes reports how many bytes of shard files the last Replay
// consumed (the runner's replay span carries it).
func (s *JSONLSink) replayedBytes() int64 { return s.replayed.Load() }

// readFileInto reads the named file — a committed shard, which nobody
// writes to any more — into buf's storage, growing it when the file is
// larger, and returns the bytes read.
func readFileInto(buf []byte, name string) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return buf[:0], err
	}
	if st.Size() > int64(cap(buf)) {
		buf = make([]byte, st.Size())
	}
	buf = buf[:st.Size()]
	if _, err := io.ReadFull(f, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// decodeShard appends the triples of a shard file's lines to triples.
// Decoding unescapes inside file, so its content is spent afterwards.
func decodeShard(dec *jsonl.TripleDecoder, file []byte, triples []ceres.Triple) ([]ceres.Triple, error) {
	for line := 1; len(file) > 0; line++ {
		text := file
		if nl := bytes.IndexByte(file, '\n'); nl >= 0 {
			text, file = file[:nl], file[nl+1:]
		} else {
			file = nil
		}
		if jsonl.SkipSpace(text, 0) == len(text) {
			continue
		}
		triples = append(triples, ceres.Triple{})
		if err := dec.Decode(text, &triples[len(triples)-1]); err != nil {
			return triples[:len(triples)-1], fmt.Errorf("line %d: %w", line, err)
		}
	}
	return triples, nil
}

// CollectSink keeps committed triples in memory, per shard — the sink
// for in-process harvests whose results are consumed directly (CLI
// output, tests). It implements Replayer. Being in-memory, it cannot
// resume a previous process's output: use JSONLSink with a checkpoint for
// that.
type CollectSink struct {
	mu     sync.Mutex
	shards map[Shard][]ceres.Triple
}

// NewCollectSink builds an empty collecting sink.
func NewCollectSink() *CollectSink {
	return &CollectSink{shards: map[Shard][]ceres.Triple{}}
}

// OpenShard implements TripleSink.
func (s *CollectSink) OpenShard(sh Shard) (ShardWriter, error) {
	return &collectShard{sink: s, shard: sh}, nil
}

type collectShard struct {
	sink    *CollectSink
	shard   Shard
	triples []ceres.Triple
}

func (w *collectShard) Write(t ceres.Triple) error {
	w.triples = append(w.triples, t)
	return nil
}

func (w *collectShard) Commit() error {
	w.sink.mu.Lock()
	defer w.sink.mu.Unlock()
	w.sink.shards[w.shard] = w.triples
	return nil
}

func (w *collectShard) Abort() error { return nil }

// Sync implements TripleSink; there is nothing to flush.
func (s *CollectSink) Sync() error { return nil }

// Replay implements Replayer over the in-memory shards.
func (s *CollectSink) Replay(ctx context.Context, shards []Shard, fn func(site string, t ceres.Triple) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range shards {
		if err := ctx.Err(); err != nil {
			return err
		}
		triples, ok := s.shards[sh]
		if !ok {
			return fmt.Errorf("batch: replaying shard %s/%d: not collected", sh.Site, sh.Index)
		}
		for _, t := range triples {
			if err := fn(sh.Site, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// Triples returns every committed triple in deterministic (site, shard)
// order.
func (s *CollectSink) Triples() []ceres.Triple {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]Shard, 0, len(s.shards))
	for sh := range s.shards {
		keys = append(keys, sh)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Index < keys[j].Index
	})
	var out []ceres.Triple
	for _, sh := range keys {
		out = append(out, s.shards[sh]...)
	}
	return out
}
