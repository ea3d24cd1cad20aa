package ceres

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"unicode/utf8"
)

// FuzzUntrainable holds DirStore's training verdict, untrainable.json, to
// its two contracts. Whatever bytes the file holds, Untrainable neither
// panics nor fails, and it reports a verdict only when they decode to one
// under the asked key, with that verdict's reason. What MarkUntrainable
// records, Untrainable returns under the same key and under no other: the
// reason as encoding/json stores it, each invalid byte replaced by U+FFFD
// (what converting it to runes does). A key that is not valid UTF-8 is
// refused, not stored altered.
func FuzzUntrainable(f *testing.F) {
	const site = "fuzz.example"
	f.Fuzz(func(t *testing.T, data []byte, key, reason, other string) {
		store, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dir := store.siteDir(site)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, verdictFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, err := store.Untrainable(site, key)
		if err != nil {
			t.Fatalf("Untrainable over a readable file: %v", err)
		}
		var v verdict
		want := json.Unmarshal(data, &v) == nil && v.Key == key
		if ok != want || ok && got != v.Reason {
			t.Fatalf("Untrainable(%q) = %q, %v over %q", key, got, ok, data)
		}

		err = store.MarkUntrainable(site, key, reason)
		if !utf8.ValidString(key) {
			if err == nil {
				t.Fatalf("MarkUntrainable stored a verdict under the invalid key %q", key)
			}
			return
		}
		if err != nil {
			t.Fatalf("MarkUntrainable: %v", err)
		}
		got, ok, err = store.Untrainable(site, key)
		if err != nil || !ok || got != string([]rune(reason)) {
			t.Fatalf("marked %q under %q, read back %q, %v, %v", reason, key, got, ok, err)
		}
		if other != key {
			if got, ok, err := store.Untrainable(site, other); err != nil || ok {
				t.Fatalf("verdict under %q read back under %q: %q, %v, %v", key, other, got, ok, err)
			}
		}
	})
}
