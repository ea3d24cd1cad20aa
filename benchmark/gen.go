package main

import (
	"fmt"
	"math/rand"
	"strings"

	"ceres"
	"ceres/internal/eval"
	"ceres/internal/websim"
)

// Every input below is a pure function of the benchmark seed: websim
// worlds, the crawl, the chrome transform and the train/serve split all
// draw from generators seeded by subSeed. The programs under test only
// ever see the generated pages, KBs and models.

// subSeed derives an independent generator seed from the run seed and a
// purpose tag (splitmix64 over both).
func subSeed(seed int64, tag string) int64 {
	x := uint64(seed)
	for _, c := range []byte(tag) {
		x = (x ^ uint64(c)) * 0x9e3779b97f4a7c15
		x ^= x >> 32
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1) // websim seeds are non-negative
}

// siteInput is one site of a serve workload: pages to train on, unseen
// pages to serve, the seed KB and the gold facts of the unseen pages.
type siteInput struct {
	name   string
	kb     *ceres.KB
	train  []ceres.PageSource
	unseen []ceres.PageSource
	gold   []eval.Fact // Page is "site/pageID"
}

// genServeSite generates one demo corpus and splits it the way a
// harvest does: the leading pages train (websim puts the pages whose
// entities the seed KB knows first, and a long-tail site is untrainable
// from a random sample), the rest are served, in a seeded random order.
// With chrome set every page is wrapped in site chrome first, so
// training and serving see the same kind of page.
func genServeSite(seed int64, kind string, nTrain, nUnseen int, chrome bool) (*siteInput, error) {
	c, err := ceres.DemoCorpus(kind, subSeed(seed, "corpus/"+kind)%(1<<31), nTrain+nUnseen)
	if err != nil {
		return nil, err
	}
	if len(c.Pages) < nTrain+nUnseen {
		return nil, fmt.Errorf("corpus %s: %d pages, need %d", kind, len(c.Pages), nTrain+nUnseen)
	}
	pages := append([]ceres.PageSource(nil), c.Pages...)
	if chrome {
		ch := newChrome(subSeed(seed, "chrome/"+kind), kind)
		for i := range pages {
			pages[i].HTML = ch.wrap(pages[i].HTML, i)
		}
	}
	in := &siteInput{name: kind, kb: c.KB, train: pages[:nTrain], unseen: pages[nTrain : nTrain+nUnseen]}
	r := rand.New(rand.NewSource(subSeed(seed, "order/"+kind)))
	r.Shuffle(len(in.unseen), func(i, j int) { in.unseen[i], in.unseen[j] = in.unseen[j], in.unseen[i] })
	served := make(map[string]bool, nUnseen)
	for _, p := range in.unseen {
		served[p.ID] = true
	}
	for _, g := range c.Gold {
		if served[g.Page] {
			in.gold = append(in.gold, eval.Fact{Page: kind + "/" + g.Page, Predicate: g.Predicate, Value: g.Value})
		}
	}
	return in, nil
}

// chrome wraps a page in inert site chrome — a stylesheet, scripts and
// nav/footer link lists, the bulk of a real page's bytes — to a median
// of about 32 KB. The stylesheet and link lists are the same on every
// page of a site, as on a real site; an inline data script varies per
// page so page sizes spread by roughly ±20%.
type chrome struct {
	seed         int64
	style        string
	script       string
	nav, footer  string
	perPageBytes int
}

// Link texts are plain site-navigation words, none of them a KB entity
// name, so the chrome adds text fields to lex and score but nothing to
// annotate.
var navWords = []string{"Home", "Browse", "Charts", "Calendar", "News", "Community", "Forums", "Help", "About",
	"Contact", "Careers", "Press", "Advertise", "Terms", "Privacy", "Cookies", "Sitemap", "Mobile", "Apps", "Newsletter"}

func newChrome(seed int64, site string) *chrome {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for b.Len() < 10<<10 {
		fmt.Fprintf(&b, ".%s-c%d{margin:%dpx %dpx;padding:%dpx;color:#%06x;font:%dpx/1.%d sans-serif}\n",
			site, r.Intn(1000), r.Intn(32), r.Intn(32), r.Intn(16), r.Intn(1<<24), 10+r.Intn(8), r.Intn(9))
	}
	c := &chrome{seed: seed, style: b.String(), perPageBytes: 4 << 10}
	b.Reset()
	for b.Len() < 9<<10 {
		fmt.Fprintf(&b, "function f%d(a,b){if(a<b&&b>%d){return \"<div>\"+a+\"</div>\";}return a*%d+b;}\n",
			r.Intn(100000), r.Intn(100), r.Intn(1000))
	}
	c.script = b.String()
	links := func(n int, class string) string {
		var l strings.Builder
		fmt.Fprintf(&l, "<div class=\"%s\"><ul>", class)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&l, "<li><a href=\"/%s/%d\">%s %d</a></li>", class, r.Intn(10000), navWords[r.Intn(len(navWords))], i+1)
		}
		l.WriteString("</ul></div>")
		return l.String()
	}
	c.nav = links(30, "chrome-nav")
	c.footer = links(50, "chrome-footer")
	return c
}

func (c *chrome) wrap(html string, page int) string {
	r := rand.New(rand.NewSource(c.seed + int64(page)*7919))
	n := c.perPageBytes/2 + r.Intn(c.perPageBytes*2)
	var data strings.Builder
	data.WriteString("<script type=\"application/json\">{\"rows\":[")
	for data.Len() < n {
		fmt.Fprintf(&data, "{\"id\":%d,\"score\":%d.%d,\"tag\":\"t%d\"},", r.Intn(1<<20), r.Intn(10), r.Intn(100), r.Intn(500))
	}
	data.WriteString("{}]}</script>")
	head := "<style>" + c.style + "</style><script>" + c.script + "</script>"
	tail := c.footer + data.String()

	var b strings.Builder
	b.Grow(len(html) + len(head) + len(c.nav) + len(tail))
	rest := html
	if i := strings.Index(rest, "</head>"); i >= 0 {
		b.WriteString(rest[:i])
		b.WriteString(head)
		rest = rest[i:]
	} else {
		b.WriteString(head)
	}
	if i := strings.Index(rest, "<body>"); i >= 0 {
		i += len("<body>")
		b.WriteString(rest[:i])
		b.WriteString(c.nav)
		rest = rest[i:]
	}
	if i := strings.LastIndex(rest, "</body>"); i >= 0 {
		b.WriteString(rest[:i])
		b.WriteString(tail)
		b.WriteString(rest[i:])
	} else {
		b.WriteString(rest)
		b.WriteString(tail)
	}
	return b.String()
}

// crawlInput is the generated long-tail crawl of a harvest workload.
type crawlInput struct {
	crawl *websim.Crawl
	pages int
	gold  map[string][]eval.Fact // by site; Page is "site/pageID"
}

func genCrawl(seed int64, scale float64, maxSitePages int, sites []string) *crawlInput {
	c := websim.GenerateCrawl(websim.CrawlConfig{
		Seed: subSeed(seed, "crawl"), Scale: scale, MaxSitePages: maxSitePages, Sites: sites,
	})
	in := &crawlInput{crawl: c, gold: make(map[string][]eval.Fact)}
	for _, s := range c.Sites {
		in.pages += len(s.Pages)
		for _, p := range s.Pages {
			for _, f := range p.GoldValues() {
				if f.Predicate == "name" {
					continue
				}
				in.gold[s.Name] = append(in.gold[s.Name], eval.Fact{Page: s.Name + "/" + p.ID, Predicate: f.Predicate, Value: f.Value})
			}
		}
	}
	return in
}
