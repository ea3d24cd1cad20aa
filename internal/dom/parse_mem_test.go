package dom_test

import (
	"runtime"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/websim"
)

// TestParseBytesPerNode bounds what a parsed page holds per node — the
// node itself, its share of the child-pointer and attribute arrays, and
// the strings Parse decodes — measured as live heap over node count on 200
// pages of the benchmark crawl. With fixed 128-node slabs and a 176-byte
// Node it read ≈ 340 bytes; sized to the page, ≈ 175.
func TestParseBytesPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a crawl")
	}
	crawl := websim.GenerateCrawl(websim.CrawlConfig{Seed: 1, Scale: 0.05, MaxSitePages: 1500})
	var pages []string
	for _, site := range crawl.Sites {
		for _, p := range site.Pages {
			if len(pages) < 200 {
				// A copy of its own, so the live heap counts no crawl.
				pages = append(pages, string([]byte(p.HTML)))
			}
		}
	}
	crawl = nil
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := live()
	docs := make([]*dom.Node, len(pages))
	for i, p := range pages {
		docs[i] = dom.Parse(p)
	}
	held := live() - base
	nodes := 0
	for _, d := range docs {
		d.Walk(func(*dom.Node) bool { nodes++; return true })
	}
	perNode := float64(held) / float64(nodes)
	t.Logf("%d pages, %d nodes: %.0f KB live, %.1f B/node", len(pages), nodes, float64(held)/1024, perNode)
	const maxPerNode = 220
	if perNode > maxPerNode {
		t.Errorf("parsed pages hold %.1f bytes a node, bound %d", perNode, maxPerNode)
	}
	runtime.KeepAlive(pages)
}
