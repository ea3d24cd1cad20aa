package bench

import (
	"context"
	"fmt"
)

// Experiment is one runnable table/figure regeneration.
type Experiment struct {
	ID   string
	Desc string
	Run  func(context.Context, Config) Report
}

// Experiments lists every experiment, keyed by the paper artifact it
// regenerates.
var Experiments = []Experiment{
	{"table1", "SWDE dataset composition", Table1},
	{"table2", "Movie seed-KB composition", Table2},
	{"table3", "SWDE system comparison (page-hit F1)", Table3},
	{"table4", "Per-predicate P/R/F1, Vertex++ vs CERES-Full", Table4},
	{"figure4", "Book F1 vs seed-KB overlap", Figure4},
	{"figure5", "Movie F1 vs annotated-page budget", Figure5},
	{"table5", "IMDb extraction quality, Topic vs Full", Table5},
	{"table6", "IMDb annotation quality, Topic vs Full", Table6},
	{"table7", "IMDb topic-identification accuracy", Table7},
	{"figure6", "Crawl precision vs volume sweep", Figure6},
	{"table8", "Crawl per-site breakdown", Table8},
	{"table9", "Crawl top-10 predicates", Table9},
	{"ablate", "Design-choice ablations", Ablate},
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the experiment IDs in presentation order.
func IDs() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.ID
	}
	return out
}

// FormatReport renders a report with its banner.
func FormatReport(r Report) string {
	return fmt.Sprintf("### %s\n\n%s\n", r.Name, r.Text)
}
