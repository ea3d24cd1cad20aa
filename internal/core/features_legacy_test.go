package core

import (
	"context"
	"reflect"
	"strconv"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/mlr"
	"ceres/internal/websim"
)

// legacyFeatures is Featurizer.Features as it was before feature names
// were built in a reused byte buffer: every name a string concatenation,
// interned through Dict.ID. It is frozen here as the reference
// TestFeaturesMatchLegacy holds the featurizer to. Do not change it.
func legacyFeatures(fz *Featurizer, f *Field) mlr.Vector {
	var feats []mlr.Feature
	add := func(name string) {
		if id := fz.dict.ID(name); id >= 0 {
			feats = append(feats, mlr.Feature{Index: id, Value: 1})
		}
	}
	elem := f.Node.Parent
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

// TestFeaturesMatchLegacy holds Features to the string-concatenating
// featurizer it replaced: on every demo site, under each feature-family
// option, two featurizers over the same pages — one through Features,
// one through legacyFeatures — featurize every field of every page in
// the same order, which covers every field training featurizes. Each
// vector and the dictionary's names, in first-seen order, must be equal;
// and once both dictionaries are frozen, so must every vector of a second
// pass, which drops names the dictionary never saw.
func TestFeaturesMatchLegacy(t *testing.T) {
	for kind, pages := range demoSites(t, 3, 40) {
		for _, opts := range []FeatureOptions{{}, {DisableStructural: true}, {DisableText: true}, {SiblingWindow: 12, MaxAncestors: 11}} {
			got, want := NewFeaturizer(pages, opts), NewFeaturizer(pages, opts)
			half := len(pages) / 2
			pass := func(pages []*Page) {
				for _, p := range pages {
					for fi, f := range p.Fields {
						g, w := got.Features(f), legacyFeatures(want, f)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("%s %+v: page %s field %d: %v, legacy %v", kind, opts, p.ID, fi, g, w)
						}
					}
				}
			}
			pass(pages[:half])
			if g, w := got.Dict().State().Names, want.Dict().State().Names; !reflect.DeepEqual(g, w) {
				t.Fatalf("%s %+v: dictionary of %d names, legacy %d, or out of order", kind, opts, len(g), len(w))
			}
			got.Freeze()
			want.Freeze()
			pass(pages)
			if got.Dict().Len() != want.Dict().Len() {
				t.Fatalf("%s %+v: frozen dictionary grew", kind, opts)
			}
		}
	}
}
