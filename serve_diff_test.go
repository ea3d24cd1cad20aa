package ceres

// Serialization must be unaffected by compilation. The serve engine's
// differential tests live beside the engine, in internal/core's
// serve_diff_test.go.

import (
	"bytes"
	"context"
	"testing"
)

// TestCompiledServeLeavesSerializationUnchanged: compiling and serving
// must not mutate the model; WriteBinary is byte-identical before and after,
// and a reloaded model re-serializes identically (the on-disk format has
// no compiled artifacts).
func TestCompiledServeLeavesSerializationUnchanged(t *testing.T) {
	c, err := DemoCorpus("movies", 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewPipeline(c.KB).Train(context.Background(), c.Pages[:15])
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if _, err := model.WriteBinary(&before); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Extract(context.Background(), c.Pages[15:]); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if _, err := model.WriteBinary(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("serving through the compiled path changed the serialized model")
	}
	loaded, err := ReadSiteModel(bytes.NewReader(after.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Extract(context.Background(), c.Pages[15:]); err != nil {
		t.Fatal(err)
	}
	var reloaded bytes.Buffer
	if _, err := loaded.WriteBinary(&reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), reloaded.Bytes()) {
		t.Fatal("reload + compiled serve changed the serialized bytes")
	}
}
