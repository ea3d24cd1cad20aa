package websim

import (
	"strings"
	"testing"

	"ceres/internal/dom"
	"ceres/internal/kb/kbtest"
)

func smallWorld() *World {
	return NewWorld(WorldConfig{Films: 80, People: 120, Series: 4, Episodes: 6, Seed: 11})
}

func TestWorldConsistency(t *testing.T) {
	w := smallWorld()
	if len(w.Films) != 80 || len(w.People) != 120 {
		t.Fatalf("world sizes: %d films, %d people", len(w.Films), len(w.People))
	}
	for _, f := range w.Films {
		for _, pid := range f.Cast {
			p := w.Person(pid)
			if p == nil {
				t.Fatalf("film %s references missing person %s", f.ID, pid)
			}
			if !containsStr(p.ActedIn, f.ID) {
				t.Errorf("back-reference missing: %s acted in %s", pid, f.ID)
			}
		}
		for _, pid := range f.Directors {
			if !containsStr(w.Person(pid).Directed, f.ID) {
				t.Errorf("director back-reference missing: %s -> %s", pid, f.ID)
			}
		}
		if len(f.Directors) == 0 || len(f.Cast) < 4 {
			t.Errorf("film %s has too few credits", f.ID)
		}
		if len(f.Genres) == 0 {
			t.Errorf("film %s has no genres", f.ID)
		}
	}
	for _, e := range w.Episodes {
		if w.SeriesByID(e.SeriesID) == nil {
			t.Errorf("episode %s references missing series", e.ID)
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	a := NewWorld(WorldConfig{Films: 30, People: 40, Seed: 5})
	b := NewWorld(WorldConfig{Films: 30, People: 40, Seed: 5})
	for i := range a.Films {
		if a.Films[i].Title != b.Films[i].Title {
			t.Fatalf("film %d differs: %q vs %q", i, a.Films[i].Title, b.Films[i].Title)
		}
	}
	c := NewWorld(WorldConfig{Films: 30, People: 40, Seed: 6})
	same := 0
	for i := range a.Films {
		if a.Films[i].Title == c.Films[i].Title {
			same++
		}
	}
	if same == len(a.Films) {
		t.Errorf("different seeds should give different worlds")
	}
}

func TestBuildKBFullCoverage(t *testing.T) {
	w := smallWorld()
	k := BuildKB(w, FullCoverage(), 3)
	if k.NumEntities() == 0 || k.NumTriples() == 0 {
		t.Fatalf("empty KB")
	}
	// Spot check: every director credit is present.
	l := kbtest.New(k)
	for _, f := range w.Films[:10] {
		triples := l.TriplesOf(f.ID)
		var foundDir bool
		for _, tr := range triples {
			if tr.Predicate == PredDirectedBy && tr.Object.EntityID == f.Directors[0] {
				foundDir = true
			}
			if tr.Predicate == PredMPAARating {
				t.Errorf("MPAA rating must not enter the seed KB (Table 3 footnote)")
			}
		}
		if !foundDir {
			t.Errorf("film %s missing director triple", f.ID)
		}
	}
}

func TestBuildKBPaperCoverageBias(t *testing.T) {
	w := NewWorld(WorldConfig{Films: 400, People: 500, Seed: 9})
	full := BuildKB(w, FullCoverage(), 3)
	biased := BuildKB(w, PaperCoverage(), 3)
	biasedL := kbtest.New(biased)
	fullCast := len(kbtest.New(full).TriplesWithPredicate(PredCastMember))
	biasedCast := len(biasedL.TriplesWithPredicate(PredCastMember))
	ratio := float64(biasedCast) / float64(fullCast)
	if ratio < 0.08 || ratio > 0.30 {
		t.Errorf("cast coverage ratio %.3f; want near the paper's 14%%", ratio)
	}
	// Top billing survives: the first cast member of each film is kept.
	for _, f := range w.Films[:20] {
		found := false
		for _, tr := range biasedL.TriplesOf(f.ID) {
			if tr.Predicate == PredCastMember && tr.Object.EntityID == f.Cast[0] {
				found = true
			}
		}
		if !found {
			t.Errorf("film %s lost its top-billed cast member", f.ID)
		}
	}
}

// verifyFactPaths is the generator's core guarantee: every recorded fact
// path is, in the re-lexed page, the XPath of a text field whose collapsed
// text equals the recorded value.
func verifyFactPaths(t *testing.T, p *Page) {
	t.Helper()
	fields := map[string]string{}
	dom.StreamFields([]byte(p.HTML), func(f *dom.StreamField) {
		fields[string(f.AppendXPath(nil))] = string(f.Text())
	})
	for _, f := range p.Facts {
		got, ok := fields[f.NodePath]
		if !ok {
			t.Fatalf("page %s: fact path %q names no text field", p.ID, f.NodePath)
		}
		if got != f.Value {
			t.Fatalf("page %s: fact path %q has text %q, want %q", p.ID, f.NodePath, got, f.Value)
		}
	}
}

func TestMoviePageFactPaths(t *testing.T) {
	w := smallWorld()
	r := newRNG(2)
	for _, layout := range []string{"table", "dl", "div"} {
		style := MovieSiteStyle{Layout: layout, Prefix: "t", Language: "en", Recommendations: true, UseItemprop: layout == "table"}
		p := RenderMoviePage(w, w.Films[0], style, "testsite", r.fork(1), w.Films[1:3])
		verifyFactPaths(t, p)
		if p.TopicID != w.Films[0].ID || p.TopicType != "film" {
			t.Errorf("topic metadata wrong: %+v", p)
		}
		// Name fact present.
		var hasName bool
		for _, f := range p.Facts {
			if f.Predicate == "name" && f.Value == w.Films[0].Title {
				hasName = true
			}
		}
		if !hasName {
			t.Errorf("missing name fact on layout %s", layout)
		}
	}
}

func TestMoviePageFailureModes(t *testing.T) {
	w := smallWorld()
	r := newRNG(4)
	// AllGenres: page text contains every genre, but only the film's own
	// genres are facts.
	style := MovieSiteStyle{Layout: "table", Prefix: "x", Language: "en", AllGenres: true}
	f := w.Films[2]
	p := RenderMoviePage(w, f, style, "genretrap", r.fork(1), nil)
	verifyFactPaths(t, p)
	genreFacts := 0
	for _, fact := range p.Facts {
		if fact.Predicate == PredGenre {
			genreFacts++
		}
	}
	if genreFacts != len(f.Genres) {
		t.Errorf("AllGenres: %d genre facts, want %d", genreFacts, len(f.Genres))
	}
	for _, g := range genreList {
		if !strings.Contains(p.HTML, ">"+g+"<") {
			t.Errorf("AllGenres page missing genre %q", g)
		}
	}
	// RoleConflation: no directedBy facts; director appears in the shared
	// credits list as a cast fact.
	style = MovieSiteStyle{Layout: "div", Prefix: "y", Language: "en", RoleConflation: true}
	p = RenderMoviePage(w, f, style, "roletrap", r.fork(2), nil)
	verifyFactPaths(t, p)
	for _, fact := range p.Facts {
		if fact.Predicate == PredDirectedBy || fact.Predicate == PredWrittenBy {
			t.Errorf("RoleConflation should suppress per-role facts, got %v", fact)
		}
	}
	// DailyDates: exactly one release-date fact among many dates.
	style = MovieSiteStyle{Layout: "table", Prefix: "z", Language: "en", DailyDates: true}
	p = RenderMoviePage(w, f, style, "datetrap", r.fork(3), nil)
	verifyFactPaths(t, p)
	dateFacts := 0
	for _, fact := range p.Facts {
		if fact.Predicate == PredReleaseDate {
			dateFacts++
		}
	}
	if dateFacts != 1 {
		t.Errorf("DailyDates: %d release-date facts, want 1", dateFacts)
	}
}

func TestMultilingualLabels(t *testing.T) {
	w := smallWorld()
	r := newRNG(6)
	style := MovieSiteStyle{Layout: "table", Prefix: "cz", Language: "cs"}
	p := RenderMoviePage(w, w.Films[1], style, "kinobox.cz", r, nil)
	if !strings.Contains(p.HTML, "Režie") {
		t.Errorf("Czech director label missing")
	}
	verifyFactPaths(t, p)
	if label("xx", "director") != "Director" {
		t.Errorf("unknown language should fall back to English")
	}
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
