package bench

import (
	"context"
	"fmt"

	"ceres/internal/core"
	"ceres/internal/eval"
	"ceres/internal/kb"
	"ceres/internal/strmatch"
	"ceres/internal/websim"
)

// imdbSetup generates the §5.4 corpus once per experiment: a film/TV site
// and a person site over one world, with the footnote-10 biased seed KB.
type imdbSetup struct {
	world  *websim.World
	films  *websim.Site
	people *websim.Site
	K      *kb.KB
}

func setupIMDB(cfg Config) *imdbSetup {
	w := websim.NewWorld(websim.WorldConfig{Seed: cfg.Seed + 100})
	films, people := websim.GenerateIMDB(w, websim.IMDBConfig{
		FilmPages: cfg.IMDBFilmPages, PersonPages: cfg.IMDBPersonPages, Seed: cfg.Seed + 101,
	})
	K := websim.BuildKB(w, websim.PaperCoverage(), cfg.Seed+102)
	return &imdbSetup{world: w, films: films, people: people, K: K}
}

// imdbDomain runs one domain (Person or Film/TV) through annotation in
// both modes plus extraction, and scores everything.
type imdbDomainResult struct {
	domain string
	// extraction and annotation scores per predicate per mode.
	extTopic, extFull map[string]eval.PRF
	annTopic, annFull map[string]eval.PRF
	topicPRF          eval.PRF
}

func runIMDBDomain(ctx context.Context, domain string, site *websim.Site, K *kb.KB, cfg Config) *imdbDomainResult {
	train, evalSet := splitHalves(site.Pages)
	out := &imdbDomainResult{domain: domain}

	// --- Topic identification accuracy (Table 7), on the training half.
	trainPages, err := core.ParsePages(ctx, sourcesOf(train), 0)
	if err != nil {
		return out
	}
	topics, err := core.IdentifyTopics(ctx, trainPages, K, core.TopicOptions{}, 0)
	if err != nil {
		return out
	}
	var tp, fp, fn int
	for i, tr := range topics {
		goldID := train[i].TopicID
		_, inKB := K.Entity(goldID)
		switch {
		case tr.EntityID == "" && inKB:
			fn++
		case tr.EntityID == "":
		case tr.EntityID == goldID:
			tp++
		default:
			fp++
			if inKB {
				fn++
			}
		}
	}
	out.topicPRF = prf(tp, fp, fn)

	// --- Annotation quality (Table 6) and extraction quality (Table 5)
	// in both modes.
	for _, mode := range []string{"topic", "full"} {
		c := ceresConfig(cfg)
		if mode == "topic" {
			c.Relation.AnnotateAllMentions = true
		}
		annRes, err := core.Annotate(ctx, trainPages, K, c.Topic, c.Relation, 0)
		if err != nil {
			return out
		}
		annScores := scoreAnnotations(trainPages, train, annRes, K)

		facts, err := runTrainExtract(ctx, train, evalSet, K, c)
		extScores := map[string]eval.PRF{}
		if err == nil {
			pred := eval.Threshold(facts, cfg.Threshold)
			gold := goldFactsOf(evalSet, nil)
			extScores = eval.ScoreByPredicate(dropName(pred), dropName(gold))
		}
		if mode == "topic" {
			out.annTopic, out.extTopic = annScores, extScores
		} else {
			out.annFull, out.extFull = annScores, extScores
		}
	}
	return out
}

func dropName(facts []eval.Fact) []eval.Fact {
	var out []eval.Fact
	for _, f := range facts {
		if f.Predicate != core.NameClass {
			out = append(out, f)
		}
	}
	return out
}

func prf(tp, fp, fn int) eval.PRF {
	out := eval.PRF{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		out.P = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		out.R = float64(tp) / float64(tp+fn)
	}
	if out.P+out.R > 0 {
		out.F1 = 2 * out.P * out.R / (out.P + out.R)
	}
	return out
}

// scoreAnnotations measures annotation quality per predicate (Table 6):
// precision = annotated nodes that truly express the predicate (node-level
// gold); recall = KB-known facts of the page topic that received a correct
// annotation.
func scoreAnnotations(pages []*core.Page, gold []*websim.Page, res *core.AnnotationResult, K *kb.KB) map[string]eval.PRF {
	type counts struct{ tp, fp, fn int }
	per := map[string]*counts{}
	get := func(p string) *counts {
		if per[p] == nil {
			per[p] = &counts{}
		}
		return per[p]
	}
	correctValues := map[string]map[string]bool{} // pageIdx|pred -> normalized values correctly annotated
	for _, a := range res.Annotations {
		if a.Predicate == core.NameClass {
			continue
		}
		c := get(a.Predicate)
		goldSet := gold[a.PageIdx].GoldNodeSet()
		if goldSet[a.Predicate+"\x00"+pages[a.PageIdx].Fields[a.FieldIdx].PathString] {
			c.tp++
			key := fmt.Sprintf("%d|%s", a.PageIdx, a.Predicate)
			if correctValues[key] == nil {
				correctValues[key] = map[string]bool{}
			}
			correctValues[key][pages[a.PageIdx].Fields[a.FieldIdx].Norm] = true
		} else {
			c.fp++
		}
	}
	// Recall: for each page, each gold (pred, value) that the seed KB also
	// knows (it is annotatable) must have received a correct annotation.
	var allTP, allFP, allFN int
	for pi, g := range gold {
		if g.TopicID == "" {
			continue
		}
		kbObjects := map[string]map[string]bool{} // pred -> normalized object texts
		for _, t := range K.TriplesOf(g.TopicID) {
			if kbObjects[t.Predicate] == nil {
				kbObjects[t.Predicate] = map[string]bool{}
			}
			kbObjects[t.Predicate][normOf(K.ObjectText(t.Object))] = true
		}
		for _, f := range g.GoldValues() {
			if f.Predicate == core.NameClass {
				continue
			}
			if !kbObjects[f.Predicate][normOf(f.Value)] {
				continue // not annotatable from the seed KB
			}
			key := fmt.Sprintf("%d|%s", pi, f.Predicate)
			if !correctValues[key][normOf(f.Value)] {
				get(f.Predicate).fn++
			}
		}
	}
	out := map[string]eval.PRF{}
	for p, c := range per {
		out[p] = prf(c.tp, c.fp, c.fn)
		allTP += c.tp
		allFP += c.fp
		allFN += c.fn
	}
	out[""] = prf(allTP, allFP, allFN)
	return out
}

func normOf(s string) string {
	return strmatch.Normalize(s)
}

// imdbPredicateRows fixes the row order of Tables 5 and 6 per domain.
var imdbPersonPreds = []string{
	websim.PredAlias, websim.PredBirthPlace, websim.PredActedIn,
	websim.PredDirectorOf, websim.PredWriterOf, websim.PredProducerOf,
}

var imdbFilmPreds = []string{
	websim.PredCastMember, websim.PredDirectedBy, websim.PredWrittenBy,
	websim.PredReleaseDate, websim.PredReleaseYear, websim.PredGenre,
	websim.PredEpisodeNumber, websim.PredSeasonNumber, websim.PredEpisodeSeries,
}

// Table5 compares extraction quality of CERES-Topic vs CERES-Full on the
// IMDb-like corpus (paper Table 5).
func Table5(ctx context.Context, cfg Config) Report {
	s := setupIMDB(cfg)
	t := &table{header: []string{"Domain", "Predicate", "Topic P", "Topic R", "Topic F1", "Full P", "Full R", "Full F1"}}
	for _, d := range []struct {
		name  string
		site  *websim.Site
		preds []string
	}{
		{"Person", s.people, imdbPersonPreds},
		{"Film/TV", s.films, imdbFilmPreds},
	} {
		r := runIMDBDomain(ctx, d.name, d.site, s.K, cfg)
		for _, p := range d.preds {
			tp, fu := r.extTopic[p], r.extFull[p]
			t.add(d.name, shortPred(p), f3(tp.P), f3(tp.R), f3(tp.F1), f3(fu.P), f3(fu.R), f3(fu.F1))
		}
		tp, fu := r.extTopic[""], r.extFull[""]
		t.add(d.name, "All Extractions", f3(tp.P), f3(tp.R), f3(tp.F1), f3(fu.P), f3(fu.R), f3(fu.F1))
	}
	return Report{Name: "Table 5: IMDb extraction quality, CERES-Topic vs CERES-Full", Text: t.String()}
}

// Table6 compares annotation quality of the two modes (paper Table 6).
func Table6(ctx context.Context, cfg Config) Report {
	s := setupIMDB(cfg)
	t := &table{header: []string{"Domain", "Predicate", "Topic P", "Topic R", "Topic F1", "Full P", "Full R", "Full F1"}}
	for _, d := range []struct {
		name  string
		site  *websim.Site
		preds []string
	}{
		{"Person", s.people, imdbPersonPreds},
		{"Film/TV", s.films, imdbFilmPreds},
	} {
		r := runIMDBDomain(ctx, d.name, d.site, s.K, cfg)
		for _, p := range d.preds {
			tp, fu := r.annTopic[p], r.annFull[p]
			t.add(d.name, shortPred(p), f3(tp.P), f3(tp.R), f3(tp.F1), f3(fu.P), f3(fu.R), f3(fu.F1))
		}
		tp, fu := r.annTopic[""], r.annFull[""]
		t.add(d.name, "All Annotations", f3(tp.P), f3(tp.R), f3(tp.F1), f3(fu.P), f3(fu.R), f3(fu.F1))
	}
	return Report{Name: "Table 6: IMDb annotation quality, CERES-Topic vs CERES-Full", Text: t.String()}
}

// Table7 reports topic-identification accuracy (paper Table 7).
func Table7(ctx context.Context, cfg Config) Report {
	s := setupIMDB(cfg)
	t := &table{header: []string{"Domain", "P", "R", "F1"}}
	for _, d := range []struct {
		name string
		site *websim.Site
	}{
		{"Person", s.people},
		{"Film/TV", s.films},
	} {
		r := runIMDBDomain(ctx, d.name, d.site, s.K, cfg)
		t.add(d.name, f3(r.topicPRF.P), f3(r.topicPRF.R), f3(r.topicPRF.F1))
	}
	return Report{Name: "Table 7: topic identification accuracy on IMDb", Text: t.String()}
}
