package core

import (
	"reflect"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/websim"
)

func TestAnnotateMovieSite(t *testing.T) {
	pages, K, _, gold := buildMovieSite(t, 30, defaultStyle())
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	if res.NumAnnotatedPages() < 25 {
		t.Fatalf("annotated only %d/30 pages", res.NumAnnotatedPages())
	}
	// Annotation precision against node-level gold: an annotation is
	// correct iff the (predicate, nodePath) pair is in the page's gold
	// fact set.
	correct, total := 0, 0
	for _, a := range res.Annotations {
		if a.Predicate == NameClass {
			continue
		}
		total++
		goldSet := gold[a.PageIdx].GoldNodeSet()
		if goldSet[a.Predicate+"\x00"+pages[a.PageIdx].Fields[a.FieldIdx].PathString] {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("no relation annotations at all")
	}
	prec := float64(correct) / float64(total)
	if prec < 0.9 {
		t.Errorf("annotation precision %.3f below 0.9 (%d/%d)", prec, correct, total)
	}
}

// TestAnnotateAtMostOneMentionPerObject checks the §3.2 invariant: CERES
// annotates at most one mention of each (predicate, object) per page.
func TestAnnotateAtMostOneMentionPerObject(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 20, defaultStyle())
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	type key struct {
		page int
		pred string
		text string
	}
	seen := map[key]int{}
	for _, a := range res.Annotations {
		if a.Predicate == NameClass {
			continue
		}
		k := key{a.PageIdx, a.Predicate, pages[a.PageIdx].Fields[a.FieldIdx].Norm}
		seen[k]++
		if seen[k] > 1 {
			t.Fatalf("object %q annotated twice for %s on page %d", k.text, k.pred, k.page)
		}
	}
}

// TestGenreDuplicationTrap reproduces Example 3.2: genres appear both in
// the infobox and in the recommendation rail of other films; the
// annotation must prefer the infobox mention (which all pages share),
// not the rail.
func TestGenreDuplicationTrap(t *testing.T) {
	style := defaultStyle() // Recommendations: true
	pages, K, _, gold := buildMovieSite(t, 40, style)
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	var genreAnns, correct int
	for _, a := range res.Annotations {
		if a.Predicate != websim.PredGenre {
			continue
		}
		genreAnns++
		if gold[a.PageIdx].GoldNodeSet()[a.Predicate+"\x00"+pages[a.PageIdx].Fields[a.FieldIdx].PathString] {
			correct++
		}
	}
	if genreAnns == 0 {
		t.Fatal("no genre annotations")
	}
	if float64(correct)/float64(genreAnns) < 0.9 {
		t.Errorf("genre annotation precision %d/%d below 0.9 — the rail trap is winning", correct, genreAnns)
	}
}

// TestCeresTopicAnnotatesMoreNoisily: the CERES-Topic mode (annotate all
// mentions) must produce at least as many annotations, with lower or
// equal node-level precision — the Table 6 relationship.
func TestCeresTopicAnnotatesMoreNoisily(t *testing.T) {
	pages, K, _, gold := buildMovieSite(t, 40, defaultStyle())
	full := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	topic := annotate(t, pages, K, TopicOptions{}, RelationOptions{AnnotateAllMentions: true})
	if len(topic.Annotations) < len(full.Annotations) {
		t.Errorf("CERES-Topic produced fewer annotations (%d) than CERES-Full (%d)",
			len(topic.Annotations), len(full.Annotations))
	}
	prec := func(res *AnnotationResult) float64 {
		correct, total := 0, 0
		for _, a := range res.Annotations {
			if a.Predicate == NameClass {
				continue
			}
			total++
			if gold[a.PageIdx].GoldNodeSet()[a.Predicate+"\x00"+pages[a.PageIdx].Fields[a.FieldIdx].PathString] {
				correct++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(correct) / float64(total)
	}
	pFull, pTopic := prec(full), prec(topic)
	if pTopic > pFull+1e-9 {
		t.Errorf("CERES-Topic precision %.3f exceeds CERES-Full %.3f", pTopic, pFull)
	}
}

func TestInformativenessFilter(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 15, defaultStyle())
	strict := annotate(t, pages, K, TopicOptions{}, RelationOptions{MinAnnotations: 50})
	if strict.NumAnnotatedPages() != 0 {
		t.Errorf("MinAnnotations=50 should reject every page, got %d", strict.NumAnnotatedPages())
	}
	loose := annotate(t, pages, K, TopicOptions{}, RelationOptions{MinAnnotations: 1})
	if loose.NumAnnotatedPages() == 0 {
		t.Errorf("MinAnnotations=1 should keep pages")
	}
}

func TestClusterPredPaths(t *testing.T) {
	paths := map[string]int{
		"/html[1]/body[1]/div[1]/ul[1]/li[1]/a[1]": 30,
		"/html[1]/body[1]/div[1]/ul[1]/li[2]/a[1]": 28,
		"/html[1]/body[1]/div[1]/ul[1]/li[3]/a[1]": 25,
		"/html[1]/body[1]/div[9]/span[2]/a[1]":     4,
	}
	sizes := clusterPredPaths(paths, 2, 100)
	listSize := sizes["/html[1]/body[1]/div[1]/ul[1]/li[1]/a[1]"]
	railSize := sizes["/html[1]/body[1]/div[9]/span[2]/a[1]"]
	if listSize != 83 {
		t.Errorf("list cluster size = %d, want 83", listSize)
	}
	if railSize != 4 {
		t.Errorf("rail cluster size = %d, want 4", railSize)
	}
	// Single path.
	one := clusterPredPaths(map[string]int{"/html[1]/a[1]": 7}, 3, 100)
	if one["/html[1]/a[1]"] != 7 {
		t.Errorf("single-path cluster = %v", one)
	}
	// Empty.
	if got := clusterPredPaths(map[string]int{}, 1, 10); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
}

func TestAnnotationsRespectTopicField(t *testing.T) {
	pages, K, _, _ := buildMovieSite(t, 20, defaultStyle())
	res := annotate(t, pages, K, TopicOptions{}, RelationOptions{})
	nameCount := map[int]int{}
	for _, a := range res.Annotations {
		if a.Predicate == NameClass {
			nameCount[a.PageIdx]++
			if res.Topics[a.PageIdx].FieldIdx != a.FieldIdx {
				t.Errorf("name annotation not at the topic field on page %d", a.PageIdx)
			}
		}
	}
	for pi, n := range nameCount {
		if n != 1 {
			t.Errorf("page %d has %d name annotations", pi, n)
		}
	}
}

// treeBestLocalMentions is BestLocalMention (Algorithm 2 lines 1–14) over
// the text nodes of a dom.Parse tree, as relation annotation computed it
// before it read the stream records: the exclusive ancestor is the
// highest node above a mention containing no other mention of the object,
// and each object with a mention under it counts.
func treeBestLocalMentions(text []*dom.Node, fields []int, predFields [][]int) []int {
	contains := func(n, m *dom.Node) bool {
		for ; m != nil; m = m.Parent {
			if m == n {
				return true
			}
		}
		return false
	}
	bestCount := -1
	var best []int
	for _, fi := range fields {
		anc := text[fi]
	up:
		for cand := anc.Parent; cand != nil; cand = cand.Parent {
			for _, mi := range fields {
				if mi != fi && contains(cand, text[mi]) {
					break up
				}
			}
			anc = cand
		}
		count := 0
		for _, objFields := range predFields {
			for _, fj := range objFields {
				if contains(anc, text[fj]) {
					count++
					break
				}
			}
		}
		if count > bestCount {
			bestCount, best = count, []int{fi}
		} else if count == bestCount {
			best = append(best, fi)
		}
	}
	return best
}

// TestLocalEvidenceMatchesTree holds relation annotation's local evidence
// on the stream records to the same computation over a parsed tree. On
// every page of a movie site, as generated and under each malformedEdits
// entry, and on a page whose element holds two mentions of one object
// (the mention's own text node is then its exclusive ancestor), fields
// with equal normalized text stand for the mentions of one object, and
// every object of the page for the predicate's objects.
func TestLocalEvidenceMatchesTree(t *testing.T) {
	pages, _, _, _ := buildMovieSite(t, 12, defaultStyle())
	pages = append(pages, PreparePage("own-node", `<div><p>Ann<br>Ann<br>Bob</p><p>Ann</p><ul><li>Bob</li><li>Cy</li></ul></div>`))
	for _, p := range pages[:6] {
		for _, e := range malformedEdits {
			pages = append(pages, PreparePage(p.ID+"/"+e.name, e.fn(p.HTML)))
		}
	}
	compared := 0
	for _, p := range pages {
		text := dom.TextFields(dom.Parse(p.HTML))
		byNorm := map[string][]int{}
		for fi, f := range p.Fields {
			byNorm[f.Norm] = append(byNorm[f.Norm], fi)
		}
		var predFields [][]int
		for _, norm := range sortedKeys(byNorm) {
			predFields = append(predFields, byNorm[norm])
		}
		sp := streamPage(p)
		for _, fields := range predFields {
			if len(fields) < 2 {
				continue
			}
			got, want := bestLocalMentions(sp, fields, predFields), treeBestLocalMentions(text, fields, predFields)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("page %s, mentions %v: best %v, over the tree %v", p.ID, fields, got, want)
			}
			compared++
		}
	}
	if compared < 100 {
		t.Fatalf("only %d mention groups compared", compared)
	}
}
