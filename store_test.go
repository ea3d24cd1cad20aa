package ceres

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ceres/internal/fsatomic"
)

func TestDirStorePublishOpenLatestList(t *testing.T) {
	f := getTrainServeFixture(t)
	store, err := NewDirStore(filepath.Join(t.TempDir(), "models"))
	if err != nil {
		t.Fatal(err)
	}

	// Versions are assigned monotonically per site.
	for want := 1; want <= 3; want++ {
		v, err := store.Publish("films.example/a", f.model)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("publish %d assigned version %d", want, v)
		}
	}
	if _, err := store.Publish("other.example", f.model); err != nil {
		t.Fatal(err)
	}
	// Only vNNNNNN.bin is a version: a site directory holding anything
	// else is no site, and takes no version number.
	stray := filepath.Join(store.Root(), "stray.example")
	if err := os.MkdirAll(stray, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(stray, "v000001.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	ents, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []StoreEntry{
		{Site: "films.example/a", Versions: []int{1, 2, 3}},
		{Site: "other.example", Versions: []int{1}},
	}
	if !reflect.DeepEqual(ents, want) {
		t.Fatalf("List() = %+v, want %+v", ents, want)
	}
	if v, err := store.Publish("stray.example", f.model); err != nil || v != 1 {
		t.Fatalf("publish beside a stray file = version %d, %v, want 1", v, err)
	}
	if _, err := os.Stat(filepath.Join(stray, "v000001.bin")); err != nil {
		t.Fatal(err)
	}

	// Latest and Open agree, and the loaded model serves identically.
	m, v, err := store.Latest("films.example/a")
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("Latest version = %d, want 3", v)
	}
	wantRes, err := f.model.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := m.Extract(context.Background(), f.serve)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRes.Triples, gotRes.Triples) {
		t.Fatal("model loaded from store extracts differently")
	}

	// Missing sites and versions fail with the sentinel.
	if _, _, err := store.Latest("nope"); !errors.Is(err, ErrModelNotFound) {
		t.Errorf("Latest(nope) = %v, want ErrModelNotFound", err)
	}
	if _, err := store.Open("films.example/a", 9); !errors.Is(err, ErrModelNotFound) {
		t.Errorf("Open(v9) = %v, want ErrModelNotFound", err)
	}
	if _, err := store.Publish("", f.model); err == nil {
		t.Error("publishing an empty site name should fail")
	}

	// No publish temp files may survive, and published versions must be
	// world-readable (processes under other users share the store).
	err = filepath.WalkDir(store.Root(), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasPrefix(d.Name(), ".publish-") {
			t.Errorf("stray temp file %s", path)
		}
		if info, ierr := d.Info(); ierr == nil && info.Mode().Perm()&0o044 != 0o044 {
			t.Errorf("published file %s has mode %v, want world-readable", path, info.Mode().Perm())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadSiteModelTruncated checks that a model file cut off mid-stream —
// the torn write the DirStore's write-then-rename publish exists to
// prevent — fails loudly at read time at any truncation point.
func TestReadSiteModelTruncated(t *testing.T) {
	f := getTrainServeFixture(t)
	var buf bytes.Buffer
	if _, err := f.model.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := int(float64(len(full)) * frac)
		if _, err := ReadSiteModel(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("model truncated to %d/%d bytes read without error", cut, len(full))
		}
	}
}

// TestDirStoreSiteNameHardening proves hostile or unusual site names
// cannot address files outside the store root, and that legal-but-odd
// names round-trip through Publish/List/Latest.
func TestDirStoreSiteNameHardening(t *testing.T) {
	f := getTrainServeFixture(t)
	outer := t.TempDir()
	root := filepath.Join(outer, "models")
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}

	for _, site := range []string{"", ".", ".."} {
		if _, err := store.Publish(site, f.model); !errors.Is(err, ErrInvalidSiteName) {
			t.Errorf("Publish(%q) error = %v, want ErrInvalidSiteName", site, err)
		}
		if _, err := store.Open(site, 1); !errors.Is(err, ErrInvalidSiteName) {
			t.Errorf("Open(%q) error = %v, want ErrInvalidSiteName", site, err)
		}
		if _, _, err := store.Latest(site); !errors.Is(err, ErrInvalidSiteName) {
			t.Errorf("Latest(%q) error = %v, want ErrInvalidSiteName", site, err)
		}
	}

	// Slash-containing, dot-leading and unicode names are legal: PathEscape
	// folds each into a single directory entry under the store root.
	odd := []string{"../escape.example", "a/b/c", "..hidden", "filmová-databáze.cz", "漢字.example", "sp ace.example"}
	for _, site := range odd {
		if _, err := store.Publish(site, f.model); err != nil {
			t.Fatalf("Publish(%q): %v", site, err)
		}
		if _, _, err := store.Latest(site); err != nil {
			t.Errorf("Latest(%q): %v", site, err)
		}
	}

	// Nothing may exist outside the store root.
	ents, err := os.ReadDir(outer)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "models" {
		t.Fatalf("store escaped its root: %v", ents)
	}
	err = filepath.Walk(root, func(path string, _ os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			t.Fatalf("path %q resolves outside the root", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// List round-trips every odd name.
	listed, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range listed {
		got[e.Site] = true
	}
	for _, site := range odd {
		if !got[site] {
			t.Errorf("List lost site %q: %v", site, listed)
		}
	}
}

func TestCheckSiteName(t *testing.T) {
	for _, bad := range []string{"", ".", ".."} {
		if err := CheckSiteName(bad); !errors.Is(err, ErrInvalidSiteName) {
			t.Errorf("CheckSiteName(%q) = %v, want ErrInvalidSiteName", bad, err)
		}
	}
	for _, ok := range []string{"a", "...", "a/b", "a\\b", "ünïcode", "a.example"} {
		if err := CheckSiteName(ok); err != nil {
			t.Errorf("CheckSiteName(%q) = %v, want nil", ok, err)
		}
	}
}

// TestDirStoreVerdict covers the training verdict a DirStore keeps beside
// a site's versions: it answers only under the key it was written with,
// is replaced by the next one, never makes a site appear in a listing (so
// a registry boot and a watcher poll see nothing), and a Publish drops it.
func TestDirStoreVerdict(t *testing.T) {
	f := getTrainServeFixture(t)
	root := filepath.Join(t.TempDir(), "models")
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	const site = "charts.example/a"
	verdict := func(key string) (string, bool) {
		t.Helper()
		reason, ok, err := store.Untrainable(site, key)
		if err != nil {
			t.Fatal(err)
		}
		return reason, ok
	}
	if _, ok := verdict("k1"); ok {
		t.Fatal("an empty store holds a verdict")
	}
	if err := store.MarkUntrainable(site, "k1", "no annotations"); err != nil {
		t.Fatal(err)
	}
	if reason, ok := verdict("k1"); !ok || reason != "no annotations" {
		t.Fatalf("verdict under its own key = %q, %v", reason, ok)
	}
	if _, ok := verdict("k2"); ok {
		t.Fatal("a verdict answered under another key")
	}
	if err := store.MarkUntrainable(site, "k2", "still none"); err != nil {
		t.Fatal(err)
	}
	if _, ok := verdict("k1"); ok {
		t.Fatal("the overwritten verdict still answers")
	}
	if reason, ok := verdict("k2"); !ok || reason != "still none" {
		t.Fatalf("verdict after overwrite = %q, %v", reason, ok)
	}

	// A verdict-only site directory is no site: not to List, not to a
	// registry booting from the store, not to a watcher, not to Latest.
	if ents, err := store.List(); err != nil || len(ents) != 0 {
		t.Fatalf("List() = %+v, %v; want nothing", ents, err)
	}
	reg, err := OpenRegistry(context.Background(), store)
	if err != nil || reg.Len() != 0 {
		t.Fatalf("OpenRegistry over a verdict-only store: %d sites, %v", reg.Len(), err)
	}
	if n, err := NewModelWatcher(store, reg, WatcherOptions{}).Poll(context.Background()); n != 0 || err != nil {
		t.Fatalf("watcher poll over a verdict-only store = %d swaps, %v", n, err)
	}
	if _, _, err := store.Latest(site); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("Latest over a verdict-only site = %v, want ErrModelNotFound", err)
	}
	if ents, _ := os.ReadDir(filepath.Join(root, "charts.example%2Fa")); len(ents) != 1 {
		t.Fatalf("site directory holds %v, want the verdict file alone", ents)
	}

	// A malformed verdict file is no verdict, and is simply replaced.
	if err := os.WriteFile(filepath.Join(root, "charts.example%2Fa", verdictFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := verdict("k2"); ok {
		t.Fatal("a malformed verdict file answered")
	}
	if err := store.MarkUntrainable(site, "k2", "still none"); err != nil {
		t.Fatal(err)
	}

	// Publishing the site clears it.
	if _, err := store.Publish(site, f.model); err != nil {
		t.Fatal(err)
	}
	if _, ok := verdict("k2"); ok {
		t.Fatal("Publish left the verdict in place")
	}
	if ents, err := store.List(); err != nil || len(ents) != 1 || !reflect.DeepEqual(ents[0].Versions, []int{1}) {
		t.Fatalf("List() after publish = %+v, %v", ents, err)
	}

	if _, _, err := store.Untrainable("..", "k"); !errors.Is(err, ErrInvalidSiteName) {
		t.Errorf("Untrainable(..) = %v, want ErrInvalidSiteName", err)
	}
	if err := store.MarkUntrainable("", "k", "r"); !errors.Is(err, ErrInvalidSiteName) {
		t.Errorf("MarkUntrainable(\"\") = %v, want ErrInvalidSiteName", err)
	}
}

// TestDirStorePublishOrder holds a publish to the order a power loss
// needs, on the operations the filesystem seam records: a new site's
// directory is flushed into the root before anything is put in it, the
// model's bytes are fsynced before the version is linked, and the site's
// directory is flushed after the link — only then is the version number
// taken for good.
func TestDirStorePublishOrder(t *testing.T) {
	f := getTrainServeFixture(t)
	root := filepath.Join(t.TempDir(), "models")
	store, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	restore := fsatomic.SetHook(func(op fsatomic.Op) (int, error) {
		rel, _ := filepath.Rel(root, op.Path)
		if op.Kind == fsatomic.OpCreate || op.Kind == fsatomic.OpWrite || op.Kind == fsatomic.OpSync || op.Kind == fsatomic.OpLink {
			rel = filepath.Dir(rel) // temp names are random
		}
		ops = append(ops, op.Kind.String()+" "+rel)
		return 0, nil
	})
	defer restore()
	for range 2 {
		if _, err := store.Publish("a.example", f.model); err != nil {
			t.Fatal(err)
		}
	}
	restore()
	publish := []string{"create a.example", "write a.example", "sync a.example", "link a.example", "syncdir a.example", "remove a.example/untrainable.json"}
	want := append(append([]string{"syncdir ."}, publish...), publish...)
	var got []string
	for _, op := range ops {
		if !strings.HasPrefix(op, "remove a.example/.publish-") { // the temp name's removal, deferred
			got = append(got, op)
		}
	}
	if !reflect.DeepEqual(got, want) || len(ops) != len(want)+2 {
		t.Fatalf("two publishes performed\n%v\nwant (plus one temp removal each)\n%v", ops, want)
	}
}
