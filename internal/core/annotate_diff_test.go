package core_test

// Differential tests for the compiled annotation path (DESIGN.md §6):
// distant supervision through kb.Index — interned ItemIDs, precomputed
// match keys, sorted-slice page sets, parallel per-page phases — must be
// output-identical to the string-keyed reference (AnnotateLegacy and
// IdentifyTopicsLegacy, in this package's test files): same topic entities,
// same Jaccard score bits, same annotations in the same order, same
// annotated-page flags, across every DemoCorpus kind (including the
// sparse-KB longtail and paper-coverage corpora), every relation-option
// ablation, and at any worker count. This is the same bit-identical
// discipline serve_diff_test.go holds the serve path to.

import (
	"context"
	"reflect"
	"testing"

	"ceres"
	"ceres/internal/core"
)

var annotateDiffKinds = []string{
	"movies", "movies-longtail", "imdb-films", "imdb-people", "crawl-czech",
}

// corpusPages prepares the pages of a demo corpus.
func corpusPages(t *testing.T, kind string, seed int64, n int) ([]*core.Page, *ceres.Corpus) {
	t.Helper()
	src, c := corpusSources(t, kind, seed, n)
	pages, err := core.ParsePages(context.Background(), src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pages, c
}

func diffAnnotate(t *testing.T, name string, pages []*core.Page, c *ceres.Corpus, ropts core.RelationOptions) int {
	t.Helper()
	want := core.AnnotateLegacy(pages, c.KB, core.TopicOptions{}, ropts)
	for _, workers := range []int{1, 8} {
		got, err := core.Annotate(context.Background(), pages, c.KB.BuildIndex(), core.TopicOptions{}, ropts, workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Topics, want.Topics) {
			for i := range want.Topics {
				if got.Topics[i] != want.Topics[i] {
					t.Fatalf("%s (workers=%d): topic %d diverges\nindexed: %+v\nlegacy:  %+v",
						name, workers, i, got.Topics[i], want.Topics[i])
				}
			}
			t.Fatalf("%s (workers=%d): topics diverge", name, workers)
		}
		if !reflect.DeepEqual(got.Annotations, want.Annotations) {
			max := min(len(got.Annotations), len(want.Annotations))
			for i := 0; i < max; i++ {
				if got.Annotations[i] != want.Annotations[i] {
					t.Fatalf("%s (workers=%d): annotation %d diverges\nindexed: %+v\nlegacy:  %+v",
						name, workers, i, got.Annotations[i], want.Annotations[i])
				}
			}
			t.Fatalf("%s (workers=%d): indexed %d annotations, legacy %d",
				name, workers, len(got.Annotations), len(want.Annotations))
		}
		if !reflect.DeepEqual(got.AnnotatedPages, want.AnnotatedPages) {
			t.Fatalf("%s (workers=%d): annotated-page flags diverge", name, workers)
		}
	}
	return len(want.Annotations)
}

// TestIndexedAnnotationMatchesLegacyAllCorpora runs the full annotation
// stage (Algorithms 1+2) down both paths over every demo corpus.
func TestIndexedAnnotationMatchesLegacyAllCorpora(t *testing.T) {
	total := 0
	for _, kind := range annotateDiffKinds {
		pages, c := corpusPages(t, kind, 7, 40)
		n := diffAnnotate(t, kind, pages, c, core.RelationOptions{})
		t.Logf("%s: %d annotations identical on both paths", kind, n)
		total += n
	}
	if total == 0 {
		t.Fatal("no corpus produced annotations; differential vacuous")
	}
}

// TestIndexedAnnotationMatchesLegacyAblations repeats the differential
// under the relation-stage ablations: global clustering off (ties stay
// unannotated) and the CERES-Topic annotate-all-mentions baseline, plus a
// strict informativeness filter.
func TestIndexedAnnotationMatchesLegacyAblations(t *testing.T) {
	for _, kind := range []string{"movies", "movies-longtail", "imdb-films"} {
		pages, c := corpusPages(t, kind, 11, 30)
		for _, tc := range []struct {
			name  string
			ropts core.RelationOptions
		}{
			{"no-clustering", core.RelationOptions{DisableClustering: true}},
			{"all-mentions", core.RelationOptions{AnnotateAllMentions: true}},
			{"strict-informativeness", core.RelationOptions{MinAnnotations: 6}},
		} {
			diffAnnotate(t, kind+"/"+tc.name, pages, c, tc.ropts)
		}
	}
}

// TestIndexedTopicsMatchLegacy diffs Algorithm 1 alone, including the
// uniqueness filter under a tight MaxTopicPages.
func TestIndexedTopicsMatchLegacy(t *testing.T) {
	for _, kind := range annotateDiffKinds {
		pages, c := corpusPages(t, kind, 3, 24)
		for _, opts := range []core.TopicOptions{{}, {MaxTopicPages: 2}, {FrequentObjectFrac: 0.02, FrequentObjectMinCount: 1}} {
			want := core.IdentifyTopicsLegacy(pages, c.KB, opts)
			got, err := core.IdentifyTopics(context.Background(), pages, c.KB.BuildIndex(), opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: topics diverge\nindexed: %+v\nlegacy:  %+v", kind, opts, got, want)
			}
		}
	}
}
