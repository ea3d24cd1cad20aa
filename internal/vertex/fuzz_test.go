package vertex

import (
	"testing"

	"ceres/internal/core"
)

// FuzzVertexMatchesTree holds the stream-pass VERTEX++ to the tree
// reference (reference_test.go) on arbitrary pages: the page's first k
// fields (k taken modulo the field count plus one) are labelled with their
// own XPaths — the first as the topic name, the rest alternately as two
// predicates — and the rules learned on the page and the extractions from
// it must equal the reference's. Besides the over-match cases' pages, the
// committed corpus is FuzzStreamMatchesDOM's (internal/dom), whose
// (html, maxText) inputs read here as (html, k).
func FuzzVertexMatchesTree(f *testing.F) {
	for _, tc := range overMatchCases {
		for _, tp := range tc.pages {
			f.Add(tp.Page.HTML, len(tp.Page.Fields))
		}
	}
	f.Fuzz(func(t *testing.T, html string, k int) {
		p := core.PreparePage("fuzz", html)
		k = int(uint(k) % uint(len(p.Fields)+1))
		labels := map[string][]string{}
		for i, field := range p.Fields[:k] {
			pred := core.NameClass
			if i > 0 {
				pred = []string{"even", "odd"}[i%2]
			}
			labels[pred] = append(labels[pred], field.PathString)
		}
		diffTree(t, []TrainingPage{{Page: p, Labels: labels}}, []*core.Page{p})
	})
}
