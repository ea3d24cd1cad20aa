package batch

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzLoadCheckpoint feeds loadCheckpoint a fuzzed checkpoint.json against
// the plan of a two-site run (the committed corpus holds that run's real
// manifest and damaged shapes of it). No input may panic it, and a
// manifest it accepts is one a resume can trust: no planned site counts
// more done shards than it has, and isDone answers exactly the shards its
// list names — so Done == Shards, what a report reads as "site complete",
// holds only when every shard is.
func FuzzLoadCheckpoint(f *testing.F) {
	plan := &Plan{ShardPages: 16, Sites: []SitePlan{
		{Site: "boxofficemojo.com", Pages: 60, Shards: 4},
		{Site: "kinobox.cz", Pages: 60, Shards: 4},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := loadCheckpoint(path, plan)
		if err != nil {
			return
		}
		for _, sp := range plan.Sites {
			n := ck.doneCount(sp.Site)
			if n > sp.Shards {
				t.Fatalf("site %s: %d done shards of %d", sp.Site, n, sp.Shards)
			}
			listed := slices.Compact(slices.Clone(ck.m.Done[sp.Site]))
			found := 0
			for i := -1; i <= sp.Shards; i++ {
				done := ck.isDone(sp.Site, i)
				if done != slices.Contains(listed, i) {
					t.Fatalf("site %s: isDone(%d) = %v, list %v", sp.Site, i, done, listed)
				}
				if done && i >= 0 && i < sp.Shards {
					found++
				}
			}
			if found != n {
				t.Fatalf("site %s: doneCount %d, but isDone finds %d of its shards (list %v)", sp.Site, n, found, ck.m.Done[sp.Site])
			}
		}
	})
}
