package ceres

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestOpenRegistryDeterministicFailure: the boot loads models on a worker
// pool, but a failure must be reported deterministically — always the
// first-failing site in List (site-sorted) order, however the workers
// interleave.
func TestOpenRegistryDeterministicFailure(t *testing.T) {
	f := getTrainServeFixture(t)
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"a.example", "b.example", "c.example", "d.example"} {
		if _, err := store.Publish(site, f.model); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt two sites; the first in site order is the one that must be
	// reported, every run.
	for _, site := range []string{"b.example", "d.example"} {
		if err := os.WriteFile(filepath.Join(store.Root(), site, "v000001.bin"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		_, err := OpenRegistry(context.Background(), store)
		if err == nil {
			t.Fatal("OpenRegistry succeeded over corrupt models")
		}
		if !strings.Contains(err.Error(), `site "b.example"`) {
			t.Fatalf("run %d reported %v, want the first-failing site b.example", i, err)
		}
	}
}

func TestOpenRegistryCancelled(t *testing.T) {
	f := getTrainServeFixture(t)
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Publish("a.example", f.model); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := OpenRegistry(ctx, store); !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenRegistry on cancelled ctx = %v, want context.Canceled", err)
	}
}

// BenchmarkRegistryBoot measures a serving fleet's cold boot —
// OpenRegistry over a store of single-version models. The store is laid
// out once per sub-benchmark (the same trained model under every site
// name, written directly rather than through Publish, which would fsync
// each one); each iteration then boots a fresh registry from it. scale
// tracks the ROADMAP "10k models under a second" target; laying out and
// booting 10k model files is too slow for the -short smoke runs, so it
// only executes in full bench mode. Beside time and bytes it reports
// live-KB/model: the heap the last booted registry holds, read after
// runtime.GC with the registry reachable and then not, per model.
func BenchmarkRegistryBoot(b *testing.B) {
	c, err := DemoCorpus("movies", 7, 60)
	if err != nil {
		b.Fatal(err)
	}
	train := make([]PageSource, 0, len(c.Pages)/2)
	for i, p := range c.Pages {
		if i%2 == 0 {
			train = append(train, p)
		}
	}
	model, err := NewPipeline(c.KB).Train(context.Background(), train)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := model.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	for _, bc := range []struct {
		name  string
		sites int
	}{
		{"binary", 1000},
		{"scale", 10000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.sites > 1000 && testing.Short() {
				b.Skip("skipping 10k-model boot in -short mode")
			}
			root := b.TempDir()
			for i := 0; i < bc.sites; i++ {
				dir := filepath.Join(root, fmt.Sprintf("site-%05d.example", i))
				if err := os.Mkdir(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "v000001.bin"), data, 0o644); err != nil {
					b.Fatal(err)
				}
			}
			store, err := NewDirStore(root)
			if err != nil {
				b.Fatal(err)
			}
			live := func() float64 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				return float64(ms.HeapAlloc)
			}
			var reg *Registry
			b.SetBytes(int64(bc.sites * len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg = nil // the previous registry is not part of this boot
				if reg, err = OpenRegistry(context.Background(), store); err != nil {
					b.Fatal(err)
				}
				if reg.Len() != bc.sites {
					b.Fatalf("booted %d sites, want %d", reg.Len(), bc.sites)
				}
			}
			b.StopTimer()
			held := live()
			runtime.KeepAlive(reg) // and no further
			b.ReportMetric((held-live())/1e3/float64(bc.sites), "live-KB/model")
		})
	}
}
