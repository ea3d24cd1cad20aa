package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceres"
	"ceres/internal/fsatomic"
	"ceres/internal/fsatomic/fsatomictest"
	"ceres/internal/websim"
	"ceres/pagestore"
)

// sweepFixture is a small crawl — two trainable sites and the chart-only
// one, whose training fails into a stored verdict — ingested once, and
// the outputs of one uninterrupted harvest over it.
type sweepFixture struct {
	pages, kb string // the page store and seed KB every harvest directory links to
	opts      options
	fused     []byte
	triples   map[string][]byte
	models    string // the reference run's models/, verdict included
}

func newSweepFixture(t *testing.T) *sweepFixture {
	t.Helper()
	base := t.TempDir()
	f := &sweepFixture{
		pages: filepath.Join(base, "pages"),
		kb:    filepath.Join(base, "kb.tsv"),
		opts:  options{shardPages: 4, workers: 2, trainPages: 200, threshold: 0.5, fuse: true},
	}
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Scale: 0.02, MaxSitePages: 24,
		Sites: []string{"blaxploitation.com", "laborfilms.com", "boxofficemojo.com"}})
	store, err := pagestore.Open(f.pages)
	if err != nil {
		t.Fatal(err)
	}
	for i, site := range crawl.Sites {
		w, err := store.Writer(crawl.Specs[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range site.Pages {
			if err := w.Append(ceres.PageSource{ID: p.ID, HTML: p.HTML}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := publish(f.kb, crawl.SeedKB.Write); err != nil {
		t.Fatal(err)
	}

	ref := f.newDir(t, "")
	rep, _, err := harvest(context.Background(), f.in(ref))
	if err != nil {
		t.Fatal(err)
	}
	var trained, skipped int
	for _, sr := range rep.Sites {
		if sr.Trained {
			trained++
		}
		if sr.Skipped {
			skipped++
		}
	}
	if trained != 2 || skipped != 1 || rep.Shards < 4 || len(rep.Facts) == 0 {
		t.Fatalf("fixture harvest: %d trained, %d skipped, %d shards, %d facts", trained, skipped, rep.Shards, len(rep.Facts))
	}
	f.fused, f.triples, f.models = f.outputs(t, ref), readDir(t, filepath.Join(ref, "triples")), filepath.Join(ref, "models")
	return f
}

// newDir makes a harvest directory over the fixture's pages and KB; with
// models it starts warm, from a copy of that model store.
func (f *sweepFixture) newDir(t *testing.T, models string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.Symlink(f.pages, filepath.Join(dir, "pages")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(f.kb, filepath.Join(dir, "kb.tsv")); err != nil {
		t.Fatal(err)
	}
	if models != "" {
		if err := os.CopyFS(filepath.Join(dir, "models"), os.DirFS(models)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func (f *sweepFixture) in(dir string) options {
	o := f.opts
	o.dir = dir
	return o
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// outputs checks everything a finished harvest directory must be to the
// next process — checkpoint and stats readable, every stored model
// loadable, every verdict readable, no temp file of a killed writer in
// the directory or in triples/ — and returns fused.jsonl.
func (f *sweepFixture) outputs(t *testing.T, dir string) []byte {
	t.Helper()
	for _, name := range []string{"checkpoint.json", "stats.json"} {
		var doc map[string]any
		if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || json.Unmarshal(b, &doc) != nil || len(doc) == 0 {
			t.Errorf("%s is not a readable JSON document (%v)", name, err)
		}
	}
	for _, pattern := range []string{".*", filepath.Join("triples", ".*")} {
		if temps, _ := filepath.Glob(filepath.Join(dir, pattern)); len(temps) != 0 {
			t.Errorf("temp files left behind: %v", temps)
		}
	}
	store, err := ceres.NewDirStore(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	ents, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Errorf("model store lists %d sites, want the 2 trainable ones", len(ents))
	}
	for _, e := range ents {
		for _, v := range e.Versions {
			if _, err := store.Open(e.Site, v); err != nil {
				t.Errorf("stored model %s v%d does not load: %v", e.Site, v, err)
			}
		}
	}
	verdicts, _ := filepath.Glob(filepath.Join(dir, "models", "*", "untrainable.json"))
	if len(verdicts) != 1 {
		t.Errorf("%d verdict files, want the chart site's", len(verdicts))
	}
	for _, name := range verdicts {
		var v struct{ Key, Reason string }
		if b, err := os.ReadFile(name); err != nil || json.Unmarshal(b, &v) != nil || v.Key == "" || v.Reason == "" {
			t.Errorf("verdict %s unreadable (%v)", name, err)
		}
	}
	fused, err := os.ReadFile(filepath.Join(dir, "fused.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return fused
}

// TestCrashSweep kills a harvest at every durable-path operation and
// requires the next invocation to finish it as if nothing had happened.
// A first run counts the operations; then, for every n, a fresh harvest
// directory is harvested with the filesystem seam cutting the power at
// operation n (that operation torn or refused, every un-flushed rename
// undone, everything after it failing), and harvested again with the seam
// off, the way a new process would: fused.jsonl and the triples/ tree
// must be byte-identical to an uninterrupted run's, and everything in the
// directory readable (sweepFixture.outputs). Every n of a warm pass —
// models and verdicts published, the shape of a -reset re-harvest — and,
// of a cold pass, every operation inside models/: the publishes and the
// verdict. Sites train side by side and publish in whatever order their
// fits finish, so a crash point is a count — the n-th models/ operation of
// that run, whichever site's it is — never a replayed sequence. -short
// takes every fifth crash point.
func TestCrashSweep(t *testing.T) {
	f := newSweepFixture(t)
	stride := 1
	if testing.Short() {
		stride = 5
	}
	inModels := func(op fsatomic.Op) bool {
		return strings.Contains(op.Path, string(filepath.Separator)+"models"+string(filepath.Separator))
	}
	for _, pass := range []struct {
		name   string
		models string                 // what a harvest directory starts with
		counts func(fsatomic.Op) bool // which operations are crash points
	}{
		{"warm", f.models, nil},
		{"cold", "", inModels},
	} {
		t.Run(pass.name, func(t *testing.T) {
			// Count the crash points of an uninterrupted pass.
			rec := fsatomictest.Start(0, nil)
			_, _, err := harvest(context.Background(), f.in(f.newDir(t, pass.models)))
			rec.Stop()
			if err != nil {
				t.Fatal(err)
			}
			points, kinds := 0, map[fsatomic.OpKind]int{}
			for _, op := range rec.Ops() {
				if pass.counts == nil || pass.counts(op) {
					points++
					kinds[op.Kind]++
				}
			}
			for _, k := range []fsatomic.OpKind{fsatomic.OpCreate, fsatomic.OpWrite, fsatomic.OpSync, fsatomic.OpSyncDir} {
				if kinds[k] == 0 {
					t.Fatalf("the pass performed no %v: %v", k, kinds)
				}
			}
			if pass.counts == nil && kinds[fsatomic.OpRename] == 0 || pass.counts != nil && (kinds[fsatomic.OpLink] != 2 || kinds[fsatomic.OpRename] != 1) {
				t.Fatalf("the pass is not the shape the sweep is for: %v", kinds)
			}
			crashed := 0
			for n := 1; n <= points; n += stride {
				dir := f.newDir(t, pass.models)
				rec := fsatomictest.Start(n, pass.counts)
				harvest(context.Background(), f.in(dir)) // dies somewhere; what it returns is a dead process's business
				rec.Stop()
				if rec.Crashed() {
					crashed++
				}
				if _, _, err := harvest(context.Background(), f.in(dir)); err != nil {
					t.Fatalf("crash point %d (%v): the next run failed: %v", n, lastOp(rec), err)
				}
				if fused := f.outputs(t, dir); !bytes.Equal(fused, f.fused) {
					t.Errorf("crash point %d (%v): fused.jsonl differs from an uninterrupted run's", n, lastOp(rec))
				}
				got := readDir(t, filepath.Join(dir, "triples"))
				if len(got) != len(f.triples) {
					t.Errorf("crash point %d (%v): %d shard files, want %d", n, lastOp(rec), len(got), len(f.triples))
				}
				for name, want := range f.triples {
					if !bytes.Equal(got[name], want) {
						t.Errorf("crash point %d (%v): shard file %s differs", n, lastOp(rec), name)
					}
				}
				if t.Failed() {
					t.FailNow()
				}
			}
			// The commit stage batches by arrival, so a pass can take a few
			// operations fewer than the counted one; most points must bite.
			if crashed < (points/stride)*9/10 {
				t.Errorf("only %d of %d crash points were reached", crashed, points/stride)
			}
			t.Logf("%d crash points, %d swept, %d reached", points, (points+stride-1)/stride, crashed)
		})
	}
}

// lastOp describes the operation a recorder crashed at.
func lastOp(rec *fsatomictest.Recorder) string {
	ops := rec.Ops()
	if !rec.Crashed() || len(ops) == 0 {
		return "no crash"
	}
	op := ops[len(ops)-1]
	return fmt.Sprintf("%v %s", op.Kind, filepath.Base(op.Path))
}

// TestHarvestSweepsOwnTemps: the temp files a killed invocation left in
// the harvest directory — of the checkpoint, fused.jsonl, stats.json and
// kb.tsv — are gone after the next one; a publish temp inside models/ is
// not touched, because a model store may be shared with a live daemon.
func TestHarvestSweepsOwnTemps(t *testing.T) {
	f := newSweepFixture(t)
	dir := f.newDir(t, f.models)
	leaked := []string{".checkpoint.json-123", ".fused.jsonl-456", ".stats.json-789", ".kb.tsv-012"}
	foreign := []string{filepath.Join("models", "blaxploitation.com", ".publish-345"), ".editor-swap"}
	for _, name := range append(append([]string{}, leaked...), foreign...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := harvest(context.Background(), f.in(dir)); err != nil {
		t.Fatal(err)
	}
	for _, name := range leaked {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived the next invocation (%v)", name, err)
		}
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s is not this command's to remove: %v", name, err)
		}
	}
}
