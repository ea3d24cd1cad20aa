package fsatomic

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestWriteFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFile(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "two" {
		t.Fatalf("read %q, %v", b, err)
	}
	fi, err := os.Stat(path)
	if err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, %v", fi.Mode(), err)
	}
	// No temp droppings.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

// TestWriteStreamLarge publishes a stream of several writeback steps, in
// writes that straddle them, and reads back every byte.
func TestWriteStreamLarge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.jsonl")
	want := make([]byte, 3*writebackBytes+12345)
	for i := range want {
		want[i] = byte('a' + i%26)
	}
	err := WriteStream(path, func(w io.Writer) error {
		for rest := want; len(rest) > 0; {
			n := min(len(rest), 333333)
			if _, err := w.Write(rest[:n]); err != nil {
				return err
			}
			rest = rest[n:]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (%v), wrote %d", len(got), err, len(want))
	}
}

func TestCommitCleansUpOnFailure(t *testing.T) {
	dir := t.TempDir()
	tmp, err := CreateTemp(dir, ".x-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	// Renaming into a non-existent directory fails after sync/close; the
	// temp file must be gone afterwards.
	err = tmp.Commit(filepath.Join(dir, "nosuch", "final"))
	if err == nil {
		t.Fatal("commit into missing directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".x-") {
			t.Fatalf("temp file survived failed commit: %v", ents)
		}
	}
}

// TestHookSeesEveryOperation pins the order WriteFile's durability rests
// on — data fsync before the rename, directory fsync after it — and what
// a failing hook does: the operation is not performed, a failing write
// keeps only its prefix, and with removes failing too the temp file
// lingers for RemoveTemps.
func TestHookSeesEveryOperation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	var kinds []OpKind
	restore := SetHook(func(op Op) (int, error) {
		kinds = append(kinds, op.Kind)
		return 0, nil
	})
	err := WriteFile(path, []byte("payload"))
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if want := []OpKind{OpCreate, OpWrite, OpSync, OpRename, OpSyncDir}; !slices.Equal(kinds, want) {
		t.Fatalf("WriteFile performed %v, want %v", kinds, want)
	}

	errBoom := errors.New("boom")
	failing := false
	restore = SetHook(func(op Op) (int, error) {
		if op.Kind == OpWrite {
			failing = true
		}
		if failing {
			return 3, errBoom
		}
		return 0, nil
	})
	err = WriteFile(path, []byte("replacement"))
	restore()
	if !errors.Is(err, errBoom) {
		t.Fatalf("WriteFile under a failing hook returned %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "payload" {
		t.Fatalf("a failed WriteFile changed the published file to %q", b)
	}
	temps, _ := filepath.Glob(filepath.Join(dir, ".out.json-*"))
	if len(temps) != 1 {
		t.Fatalf("want the one temp file the failed remove left, found %v", temps)
	}
	if b, _ := os.ReadFile(temps[0]); string(b) != "rep" {
		t.Fatalf("torn write left %q, want the 3-byte prefix", b)
	}
	RemoveTemps(dir, ".out.json-")
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("RemoveTemps left %v", ents)
	}
}
