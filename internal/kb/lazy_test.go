package kb_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ceres/internal/kb"
	"ceres/internal/websim"
)

// demoKB is the seed KB of ceres.DemoCorpus("movies", 7, ...).
func demoKB() *kb.KB {
	return websim.BuildKB(websim.NewWorld(websim.WorldConfig{Seed: 7}), websim.FullCoverage(), 9)
}

// crawlKB is the benchmark crawl's seed KB at seed 1 (it does not depend
// on the crawl's scale). A site filter naming no roster site generates
// the KB alone.
func crawlKB() *kb.KB {
	return websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Sites: []string{"no-such-site"}}).SeedKB
}

// TestLazyMapsMatchEagerReference: for the demo KB and the crawl's seed
// KB, as built and as read back from their kb.tsv, the Index and the
// lookups equal the frozen eager reference (CheckAgainstReference).
func TestLazyMapsMatchEagerReference(t *testing.T) {
	for name, build := range map[string]func() *kb.KB{"demo": demoKB, "crawl": crawlKB} {
		t.Run(name, func(t *testing.T) {
			k := build()
			var text bytes.Buffer
			if err := k.Write(&text); err != nil {
				t.Fatal(err)
			}
			kb.CheckAgainstReference(t, k)
			read, err := kb.Read(&text)
			if err != nil {
				t.Fatal(err)
			}
			kb.CheckAgainstReference(t, read)
		})
	}
}

// TestLazyMapsConcurrentFirstUse: lookups racing to build the maps on a
// fresh KB, beside a BuildIndex, agree with one another.
func TestLazyMapsConcurrentFirstUse(t *testing.T) {
	want := demoKB()
	var texts []string
	for _, id := range want.EntityIDs()[:200] {
		e, _ := want.Entity(id)
		texts = append(texts, e.Name)
	}
	k := demoKB()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g == 0 {
				k.BuildIndex()
			}
			for _, text := range texts {
				if got, exp := k.MatchItems(text), want.MatchItems(text); !reflect.DeepEqual(got, exp) {
					t.Errorf("MatchItems(%q) = %v, want %v", text, got, exp)
				}
			}
		}()
	}
	wg.Wait()
}
