// Package vertex implements VERTEX++, the supervised wrapper-induction
// baseline of the paper's §5.2: from hand-annotated sample pages (the
// paper used two per site) it learns XPath extraction rules — index
// wildcards where annotated nodes vary, plus anchor-text disambiguation,
// the "richer feature set" that upgrades Vertex [17] to Vertex++.
//
// It learns and extracts on the stream pass, the page representation
// training and serving read (dom.StreamPage): a label is the XPath of a
// text field, a rule's pattern is an xpath.Pattern, and anchors are read
// off the element records. A pattern's steps name tags, so a rule learned
// on one scratch fits pages streamed on any other.
package vertex

import (
	"bytes"
	"sort"
	"strings"
	"sync"

	"ceres/internal/core"
	"ceres/internal/dom"
	"ceres/internal/xpath"
)

const (
	// anchorLevels bounds how far above a value's element anchorOf and
	// listLevels look.
	anchorLevels = 3
	// maxAnchor is the longest label text that can be an anchor.
	maxAnchor = 40
)

// streamOpts captures what the rules read beyond the fields: each
// element's class (AttrValue index 0) and its subtree text up to the
// longest anchor.
var streamOpts = dom.StreamOptions{MaxText: maxAnchor, Attrs: []string{"class"}}

// scratches lend Learn and Extract a stream scratch each, so an Extractor
// is safe for concurrent use.
var scratches = sync.Pool{New: func() any { return dom.NewStreamScratch() }}

// TrainingPage carries the manual annotations of one sample page: for
// each predicate (including "name" for the topic field), the XPaths of
// the text fields holding its values. A label that names no field of the
// page — an element, a comment, a text node holding only whitespace, or a
// path the page lacks — is ignored: no rule could extract it.
type TrainingPage struct {
	Page   *core.Page
	Labels map[string][]string
}

// Rule is one learned extraction pattern.
type Rule struct {
	Predicate string
	Pattern   xpath.Pattern
	// Anchor, when non-empty, requires the nearby label text of a matched
	// field to equal it — disambiguating structurally identical rows
	// ("Director" vs "Writer" table rows).
	Anchor string
}

// Extractor is a learned wrapper: a rule set for one site template.
type Extractor struct {
	Rules []Rule
}

// Learn induces extraction rules from the annotated sample pages.
func Learn(pages []TrainingPage) *Extractor {
	sc := scratches.Get().(*dom.StreamScratch)
	defer scratches.Put(sc)
	// Collect per predicate the patterns of its labels, grouped by shape
	// and widened across pages, plus anchor candidates, positional-list
	// levels, and the set of annotated value texts (which must never be
	// mistaken for anchors).
	groups := map[string]map[string]xpath.Pattern{} // pred -> shape -> pattern
	anchors := map[string]map[string]int{}          // pred -> anchor text -> count
	goldPaths := map[string]map[string]bool{}
	listLvls := map[string]map[int]bool{}
	valueTexts := map[string]bool{}
	var buf []byte
	for _, tp := range pages {
		sp := sc.Stream([]byte(tp.Page.HTML), streamOpts)
		fieldOf := make(map[string]int, sp.Fields())
		for fi := 0; fi < sp.Fields(); fi++ {
			buf = sp.AppendFieldXPath(buf[:0], fi)
			fieldOf[string(buf)] = fi
		}
		for pred, labels := range tp.Labels {
			for _, ps := range labels {
				fi, ok := fieldOf[ps]
				if !ok {
					continue
				}
				if goldPaths[pred] == nil {
					groups[pred] = map[string]xpath.Pattern{}
					goldPaths[pred] = map[string]bool{}
					anchors[pred] = map[string]int{}
					listLvls[pred] = map[int]bool{}
				}
				goldPaths[pred][ps] = true
				pat := xpath.AppendField(nil, sp, fi)
				key := shapeKey(pat)
				if g, ok := groups[pred][key]; ok {
					g.Widen(sp, fi) // same shape, so it fits
				} else {
					groups[pred][key] = pat
				}
				valueTexts[string(sp.FieldText(fi))] = true
				elem := sp.FieldParent(fi)
				if a := anchorOf(sp, elem); a != nil {
					anchors[pred][string(a)]++
				}
				listLevels(sp, elem, listLvls[pred])
			}
		}
	}
	ex := &Extractor{}
	for _, pred := range sortedKeys(groups) {
		anchor := dominantAnchor(anchors[pred], valueTexts)
		for _, key := range sortedKeys(groups[pred]) {
			pattern := groups[pred][key]
			rule := Rule{Predicate: pred, Pattern: pattern}
			// Anchor-based addressing (the "++" enrichment): when the
			// value sits inside a positional list (dd/tr/li rows whose
			// index shifts with missing fields) and a label anchor exists,
			// wildcard the positional steps and address by anchor —
			// mirroring real Vertex rules' preceding-sibling predicates.
			if anchor != "" && pred != core.NameClass && len(listLvls[pred]) > 0 {
				rule.Anchor = anchor
				for lvl := range listLvls[pred] {
					// Level 0 is the field's element, the step before the
					// pattern's text() step.
					if stepIdx := len(pattern) - 2 - lvl; stepIdx >= 0 {
						rule.Pattern[stepIdx].Index = xpath.Wildcard
					}
				}
			} else if anchor != "" && overMatches(sc, pages, pattern, goldPaths[pred]) {
				rule.Anchor = anchor
			}
			ex.Rules = append(ex.Rules, rule)
		}
	}
	return ex
}

// overMatches reports whether the pattern fits a text node of a training
// page whose XPath was not annotated for the predicate. The text nodes a
// pattern fits are the text children of the elements that fit its steps
// above text(), at the ordinals its last step allows: fields, and text
// nodes that hold only whitespace and have no field.
func overMatches(sc *dom.StreamScratch, pages []TrainingPage, pattern xpath.Pattern, gold map[string]bool) bool {
	parent, last := pattern[:len(pattern)-1], pattern[len(pattern)-1]
	var buf []byte
	var path xpath.Pattern
	for _, tp := range pages {
		sp := sc.Stream([]byte(tp.Page.HTML), streamOpts)
		fields := map[[2]int32]bool{} // element, ordinal
		for fi := 0; fi < sp.Fields(); fi++ {
			if pattern.Fits(sp, fi) {
				fields[[2]int32{sp.FieldParent(fi), sp.FieldOrdinal(fi)}] = true
				if buf = sp.AppendFieldXPath(buf[:0], fi); !gold[string(buf)] {
					return true
				}
			}
		}
		for e := int32(0); e < int32(sp.Elems()); e++ {
			if !parent.FitsElem(sp, e) {
				continue
			}
			lo, hi := 1, int(sp.TextNodes(e))
			if last.Index != xpath.Wildcard {
				lo, hi = last.Index, min(hi, last.Index)
			}
			for k := lo; k <= hi; k++ {
				if fields[[2]int32{e, int32(k)}] {
					continue
				}
				path = append(xpath.AppendElem(path[:0], sp, e), xpath.Step{Tag: last.Tag, Index: k})
				if !gold[xpath.Path(path).String()] {
					return true
				}
			}
		}
	}
	return false
}

// dominantAnchor picks the most common anchor text, never an annotated
// value (a sibling value in a multi-valued list is not a label).
func dominantAnchor(counts map[string]int, valueTexts map[string]bool) string {
	best, bestN := "", 0
	for _, a := range sortedKeys(counts) {
		if valueTexts[a] {
			continue
		}
		if counts[a] > bestN {
			best, bestN = a, counts[a]
		}
	}
	return best
}

// anchorOf finds the label text near a value whose field sits in element
// e: walking up the ancestors, it scans preceding element siblings
// nearest-first, skipping siblings of the same kind as the current
// container (other values of the same list — e.g. other <dd> entries),
// and returns the first differing sibling's text (the <dt>/<th>/label
// span). The text aliases the page; nil means no anchor.
func anchorOf(sp *dom.StreamPage, e int32) []byte {
	for lvl := 0; e != 0 && lvl <= anchorLevels; lvl++ {
		sibs := sp.ElemSiblings(e)
		class, _ := sp.AttrValue(e, 0)
		for i := sp.ElemIndex(e) - 1; i >= 0; i-- {
			s := sibs[i]
			if sc, _ := sp.AttrValue(s, 0); sp.NameID(s) == sp.NameID(e) && bytes.Equal(sc, class) {
				continue // a sibling value, not a label
			}
			if t, ok := sp.SubText(s, maxAnchor); ok && len(t) > 0 {
				return t
			}
		}
		e = sp.Parent(e)
	}
	return nil
}

// listLevels marks in lvls, for a value whose field sits in element e,
// the ancestor distances (0 = e) at which the element has two or more
// same-tag element siblings — the positional-list steps missing fields
// shift.
func listLevels(sp *dom.StreamPage, e int32, lvls map[int]bool) {
	for lvl := 0; e != 0 && lvl <= anchorLevels; lvl++ {
		same := 0
		for _, s := range sp.ElemSiblings(e) {
			if sp.NameID(s) == sp.NameID(e) {
				same++
			}
		}
		if same >= 2 {
			lvls[lvl] = true
		}
		e = sp.Parent(e)
	}
}

// Extract applies the rule set to a page. The "name" rule supplies the
// subject; every other matched field yields an extraction with confidence
// 1 (wrappers are deterministic).
func (e *Extractor) Extract(p *core.Page) []core.Extraction {
	sc := scratches.Get().(*dom.StreamScratch)
	defer scratches.Put(sc)
	sp := sc.Stream([]byte(p.HTML), streamOpts)
	subject := ""
	for _, r := range e.Rules {
		if r.Predicate != core.NameClass {
			continue
		}
		for fi := 0; fi < sp.Fields() && subject == ""; fi++ {
			if r.Pattern.Fits(sp, fi) {
				subject = string(sp.FieldText(fi))
			}
		}
		if subject != "" {
			break
		}
	}
	if subject == "" {
		return nil
	}
	var out []core.Extraction
	seen := map[string]bool{}
	for _, r := range e.Rules {
		if r.Predicate == core.NameClass {
			continue
		}
		for fi := 0; fi < sp.Fields(); fi++ {
			if !r.Pattern.Fits(sp, fi) {
				continue
			}
			if r.Anchor != "" && string(anchorOf(sp, sp.FieldParent(fi))) != r.Anchor {
				continue
			}
			path := string(sp.AppendFieldXPath(nil, fi))
			key := r.Predicate + "\x00" + path
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, core.Extraction{
				PageID:     p.ID,
				Subject:    subject,
				Predicate:  r.Predicate,
				Value:      string(sp.FieldText(fi)),
				Confidence: 1,
				Path:       path,
			})
		}
	}
	return out
}

// shapeKey is the pattern's step names joined by '/': patterns that share
// it differ only in their indices.
func shapeKey(p xpath.Pattern) string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.Tag
	}
	return strings.Join(parts, "/")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// LabelsFromGold converts node-level gold facts (predicate, value,
// nodePath) into the Labels map Learn consumes — simulating the paper's
// manual annotator, who clicks the true value nodes on a handful of
// pages.
func LabelsFromGold(facts []GoldFact) map[string][]string {
	labels := map[string][]string{}
	for _, f := range facts {
		labels[f.Predicate] = append(labels[f.Predicate], f.NodePath)
	}
	return labels
}

// GoldFact mirrors websim.PageFact without importing it (vertex stays
// independent of the simulator).
type GoldFact struct {
	Predicate string
	Value     string
	NodePath  string
}
