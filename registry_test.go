package ceres

import (
	"context"
	"reflect"
	"testing"
)

func TestRegistrySemantics(t *testing.T) {
	f := getTrainServeFixture(t)
	r := NewRegistry()
	if _, ok := r.Lookup("a"); ok || r.Len() != 0 {
		t.Fatal("empty registry served a lookup")
	}

	if v := r.PublishNext("a", f.model); v != 1 {
		t.Fatalf("first PublishNext = %d, want 1", v)
	}
	if v := r.PublishNext("a", f.model); v != 2 {
		t.Fatalf("second PublishNext = %d, want 2", v)
	}
	r.Publish("b", 7, f.model)
	e, ok := r.Lookup("a")
	if !ok || e.Version != 2 || e.Model != f.model {
		t.Fatalf("Lookup(a) = %+v, %v", e, ok)
	}

	// Explicit Publish of an older version is a rollback.
	r.Publish("a", 1, f.model)
	if e, _ := r.Lookup("a"); e.Version != 1 {
		t.Fatalf("rollback left version %d", e.Version)
	}

	snap := r.Snapshot()
	sites := make([]string, len(snap))
	for i, e := range snap {
		sites[i] = e.Site
	}
	if !reflect.DeepEqual(sites, []string{"a", "b"}) {
		t.Fatalf("Snapshot sites = %v", sites)
	}
}

func TestOpenRegistryLoadsLatest(t *testing.T) {
	f := getTrainServeFixture(t)
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := store.Publish("a", f.model); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Publish("b", f.model); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRegistry(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("OpenRegistry loaded %d sites, want 2", r.Len())
	}
	if e, ok := r.Lookup("a"); !ok || e.Version != 2 {
		t.Fatalf("site a = %+v, %v; want version 2", e, ok)
	}
	if e, ok := r.Lookup("b"); !ok || e.Version != 1 {
		t.Fatalf("site b = %+v, %v; want version 1", e, ok)
	}
}
