package cluster

import (
	"fmt"
	"testing"

	"ceres/internal/dom"
)

func moviePage(title string, nGenres int) string {
	genres := ""
	for i := 0; i < nGenres; i++ {
		genres += fmt.Sprintf("<a>Genre%d</a>", i)
	}
	return fmt.Sprintf(`<html><body>
		<div class="header"><h1>%s</h1></div>
		<table class="infobox"><tr><th>Director</th><td><a>Someone</a></td></tr></table>
		<div class="genres">%s</div>
	</body></html>`, title, genres)
}

func personPage(name string) string {
	return fmt.Sprintf(`<html><body>
		<section class="bio"><h2>%s</h2><p>Born somewhere.</p></section>
		<ol class="filmography"><li><a>Film A</a></li><li><a>Film B</a></li></ol>
	</body></html>`, name)
}

// signature fingerprints html through the stream pass, as training does.
func signature(html string) PageSignature {
	sp := dom.NewStreamScratch().Stream([]byte(html), dom.StreamOptions{Attrs: []string{"class"}, Signature: true})
	sig := PageSignature{}
	for _, k := range sp.AppendSignature(nil) {
		sig[string(k)] = true
	}
	return sig
}

func TestSignatureSimilarityWithinTemplate(t *testing.T) {
	a := signature(moviePage("Movie One", 2))
	b := signature(moviePage("Another Title Entirely", 4))
	p := signature(personPage("Some Person"))
	within := Jaccard(a, b)
	across := Jaccard(a, p)
	if within < 0.8 {
		t.Errorf("same-template similarity = %v, want high", within)
	}
	if across >= within {
		t.Errorf("cross-template similarity %v should be below within-template %v", across, within)
	}
}

func TestClusterPagesSeparatesTemplates(t *testing.T) {
	var sigs []PageSignature
	for i := 0; i < 6; i++ {
		sigs = append(sigs, signature(moviePage(fmt.Sprintf("Movie %d", i), i%3+1)))
	}
	for i := 0; i < 4; i++ {
		sigs = append(sigs, signature(personPage(fmt.Sprintf("Person %d", i))))
	}
	clusters := ClusterPages(sigs, PageClusterOptions{})
	if len(clusters) != 2 {
		t.Fatalf("want 2 clusters, got %d", len(clusters))
	}
	// Largest-first ordering: 6 movie pages, then 4 person pages.
	if len(clusters[0]) != 6 || len(clusters[1]) != 4 {
		t.Errorf("cluster sizes = %d, %d", len(clusters[0]), len(clusters[1]))
	}
	for _, idx := range clusters[0] {
		if idx >= 6 {
			t.Errorf("person page %d landed in the movie cluster", idx)
		}
	}
}

func TestClusterPagesAllTogether(t *testing.T) {
	var sigs []PageSignature
	for i := 0; i < 5; i++ {
		sigs = append(sigs, signature(moviePage(fmt.Sprintf("M%d", i), 2)))
	}
	clusters := ClusterPages(sigs, PageClusterOptions{Threshold: 0.5})
	if len(clusters) != 1 || len(clusters[0]) != 5 {
		t.Errorf("uniform pages should form one cluster: %v", clusters)
	}
}

func TestJaccardEdgeCases(t *testing.T) {
	empty := PageSignature{}
	one := PageSignature{"div": true}
	if Jaccard(empty, empty) != 1 {
		t.Errorf("two empties should be identical")
	}
	if Jaccard(empty, one) != 0 {
		t.Errorf("empty vs non-empty should be 0")
	}
	if Jaccard(one, one) != 1 {
		t.Errorf("self similarity should be 1")
	}
}

func TestClusterPagesEmpty(t *testing.T) {
	if got := ClusterPages(nil, PageClusterOptions{}); len(got) != 0 {
		t.Errorf("no pages: %v", got)
	}
}
