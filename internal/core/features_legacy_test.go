package core

import (
	"context"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/mlr"
	"ceres/internal/websim"
)

// legacyFeatures is Featurizer.Features as it was before feature names
// were built in a reused byte buffer and before training read pages
// through the stream pass: every name a string concatenation, interned
// through Dict.ID, over the field's text node in a dom.Parse tree. It is
// frozen here as the reference TestFeaturesMatchLegacy holds the
// featurizer to. Do not change it.
func legacyFeatures(fz *Featurizer, text *dom.Node) mlr.Vector {
	var feats []mlr.Feature
	add := func(name string) {
		if id := fz.dict.ID(name); id >= 0 {
			feats = append(feats, mlr.Feature{Index: id, Value: 1})
		}
	}
	elem := text.Parent
	if elem == nil {
		return mlr.NewVector(feats)
	}
	if !fz.opts.DisableStructural {
		node := elem
		for lvl := 0; node != nil && node.Type == dom.ElementNode && lvl <= fz.opts.MaxAncestors; lvl++ {
			legacyStructuralFor(node, lvl, 0, add)
			sibs := node.ElementSiblings()
			pos := node.ElementIndex()
			for off := 1; off <= fz.opts.SiblingWindow; off++ {
				if pos-off >= 0 {
					legacyStructuralFor(sibs[pos-off], lvl, -off, add)
				}
				if pos+off < len(sibs) {
					legacyStructuralFor(sibs[pos+off], lvl, off, add)
				}
			}
			node = node.Parent
		}
	}
	if !fz.opts.DisableText {
		node := elem
		for lvl := 0; node != nil && node.Type == dom.ElementNode && lvl <= fz.opts.TextAncestors; lvl++ {
			sibs := node.ElementSiblings()
			pos := node.ElementIndex()
			for off := 1; off <= fz.opts.SiblingWindow; off++ {
				if pos-off < 0 {
					break
				}
				text := sibs[pos-off].Text()
				if fz.frequent[text] {
					add("t|" + strconv.Itoa(lvl) + "|-" + strconv.Itoa(off) + "|" + text)
				}
			}
			if lvl > 0 {
				if own := node.OwnText(); own != "" && fz.frequent[own] {
					add("t|" + strconv.Itoa(lvl) + "|0|" + own)
				}
			}
			node = node.Parent
		}
	}
	return mlr.NewVector(feats)
}

func legacyStructuralFor(n *dom.Node, lvl, off int, add func(string)) {
	prefix := "s|" + strconv.Itoa(lvl) + "|" + strconv.Itoa(off) + "|"
	add(prefix + "tag|" + n.Tag)
	for _, attr := range structuralAttrs {
		if v, ok := n.Attr(attr); ok && v != "" {
			add(prefix + attr + "|" + v)
		}
	}
}

// demoSites builds the pages of every ceres.DemoCorpus kind the way it
// does (movies-longtail serves the movies pages under a smaller KB): the
// English movie site, the IMDB-style film and person templates and the
// Czech long-tail crawl site.
func demoSites(t *testing.T, seed int64, pages int) map[string][]*Page {
	t.Helper()
	w := websim.NewWorld(websim.WorldConfig{Seed: seed})
	films, people := websim.GenerateIMDB(w, websim.IMDBConfig{FilmPages: pages, PersonPages: pages, Seed: seed + 1})
	sites := map[string]*websim.Site{
		"movies": websim.BuildMovieSite(w, w.Films[:pages], websim.MovieSiteStyle{
			Layout: "table", Prefix: "demo", Language: "en", Recommendations: true,
		}, "demo-movies", seed+1),
		"imdb-films":  films,
		"imdb-people": people,
		"crawl-czech": websim.GenerateCrawl(websim.CrawlConfig{
			Seed: seed, Scale: float64(pages) / 37988.0, MaxSitePages: pages,
			Sites: []string{"kinobox.cz"},
		}).Sites[0],
	}
	out := map[string][]*Page{}
	for kind, site := range sites {
		var sources []PageSource
		for _, p := range site.Pages {
			sources = append(sources, PageSource{ID: p.ID, HTML: p.HTML})
		}
		parsed, err := ParsePages(context.Background(), sources, 2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out[kind] = parsed
	}
	return out
}

// malformedEdits rewrite a page into the malformed constructs the stream
// pass and Parse recover from alike. The first six are the root package's
// malformedMutators; the rest put internal/dom's edge cases into a page:
// implied end tags, a block closing an open <p>, void and self-closing
// tags, duplicate and oddly quoted attributes, entities, upper-case tags,
// whitespace-only text and text outside every element.
var malformedEdits = []struct {
	name string
	fn   func(html string) string
}{
	{"unclosed divs", func(h string) string {
		return strings.Replace(h, "<body", "<div><div class=\"open\"><body", 1)
	}},
	{"comment in table", func(h string) string { return strings.ReplaceAll(h, "<tr", "<!-- row --><tr") }},
	{"raw text", func(h string) string {
		return strings.Replace(h, "</body>", "<script>if (a<b) { x(\"</div>\"); }</script><style>p>a{}</style></body>", 1)
	}},
	{"stray end tags", func(h string) string { return strings.ReplaceAll(h, "<td>", "</span></p><td>") }},
	{"truncated", func(h string) string { return h[:len(h)*3/4] }},
	{"unclosed raw", func(h string) string { return h + "<script>never closed" }},
	{"implied end tags", func(h string) string {
		return strings.NewReplacer("</li>", "", "</td>", "", "</th>", "", "</tr>", "").Replace(h)
	}},
	{"block closes p", func(h string) string { return strings.ReplaceAll(h, "<div class=", "<p>para<div class=") }},
	{"void and self-closing", func(h string) string {
		return strings.ReplaceAll(h, "<a href=", "<br/><img src=x><span/><a href=")
	}},
	{"duplicate attrs", func(h string) string {
		return strings.ReplaceAll(h, "<div class=", "<div id=\"\" id=\"later\" itemprop data-x=&quot;q class = 'sq' class=")
	}},
	{"entities", func(h string) string {
		return strings.ReplaceAll(h, "<h3>", "<h3>&copy; caf&eacute; &#233; &bogus; &amp ")
	}},
	{"upper case", func(h string) string {
		return strings.NewReplacer("<td>", "<TD>", "</td>", "</ TD >", "<h3>", "<H3 CLASS=\"X\">", "</h3>", "</H3>").Replace(h)
	}},
	{"whitespace and top-level text", func(h string) string {
		return "leading" + strings.ReplaceAll(h, "</a>", " \t\n </a><span>  </span>") + "trailing"
	}},
}

// TestFeaturesMatchLegacy holds Features to the string-concatenating
// tree featurizer it replaced: on every demo site, its pages as generated
// and a quarter of them under each malformedEdits entry, under each
// feature-family option, two featurizers over the same pages — one
// through Features on the stream pass, one through legacyFeatures on a
// parsed tree — featurize every field of every page in the same order,
// which covers every field training featurizes. Each vector and the
// dictionary's names, in first-seen order, must be equal; and once both
// dictionaries are frozen, so must every vector of a second pass, which
// drops names the dictionary never saw.
func TestFeaturesMatchLegacy(t *testing.T) {
	for kind, generated := range demoSites(t, 3, 40) {
		// Every fourth page is followed by its edits, so both halves of
		// the pages hold every edit.
		var pages []*Page
		for i, p := range generated {
			pages = append(pages, p)
			for _, e := range malformedEdits {
				if i%4 == 0 {
					pages = append(pages, PreparePage(p.ID+"/"+e.name, e.fn(p.HTML)))
				}
			}
		}
		texts := make([][]*dom.Node, len(pages))
		for i, p := range pages {
			texts[i] = dom.TextFields(dom.Parse(p.HTML))
			if len(texts[i]) != len(p.Fields) {
				t.Fatalf("%s page %s: %d fields, the tree %d", kind, p.ID, len(p.Fields), len(texts[i]))
			}
		}
		for _, opts := range []FeatureOptions{{}, {DisableStructural: true}, {DisableText: true}, {SiblingWindow: 12, MaxAncestors: 11}} {
			got, want := NewFeaturizer(pages, opts), NewFeaturizer(pages, opts)
			s := pageStreamer{opts: featureStreamOptions(got.opts)}
			half := len(pages) / 2
			pass := func(n int) {
				for pi, p := range pages[:n] {
					sp := s.stream(p)
					for fi := range p.Fields {
						g, w := got.Features(sp, fi), legacyFeatures(want, texts[pi][fi])
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("%s %+v: page %s field %d: %v, legacy %v", kind, opts, p.ID, fi, g, w)
						}
					}
				}
			}
			pass(half)
			if g, w := got.Dict().State().Names, want.Dict().State().Names; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %+v: dictionary of %d names, legacy %d, or out of order", kind, opts, len(g), len(w))
			}
			got.Freeze()
			want.Freeze()
			pass(len(pages))
			if got.Dict().Len() != want.Dict().Len() {
				t.Fatalf("%s %+v: frozen dictionary grew", kind, opts)
			}
		}
	}
}
