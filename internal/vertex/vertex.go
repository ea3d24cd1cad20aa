// Package vertex implements VERTEX++, the supervised wrapper-induction
// baseline of the paper's §5.2: from hand-annotated sample pages (the
// paper used two per site) it learns XPath extraction rules — index
// wildcards where annotated nodes vary, plus anchor-text disambiguation,
// the "richer feature set" that upgrades Vertex [17] to Vertex++.
package vertex

import (
	"sort"
	"strings"

	"ceres/internal/core"
	"ceres/internal/dom"
	"ceres/internal/xpath"
)

// TrainingPage carries the manual annotations of one sample page: for
// each predicate (including "name" for the topic field), the XPaths of
// the text nodes holding its values. Wrapper induction resolves XPaths on
// a tree, so Learn and Extract parse the page's HTML themselves.
type TrainingPage struct {
	Page   *core.Page
	Labels map[string][]string
}

// Rule is one learned extraction pattern.
type Rule struct {
	Predicate string
	Pattern   xpath.Pattern
	// Anchor, when non-empty, requires the nearby label text of a matched
	// node to equal it — disambiguating structurally identical rows
	// ("Director" vs "Writer" table rows).
	Anchor string
}

// Extractor is a learned wrapper: a rule set for one site template.
type Extractor struct {
	Rules []Rule
}

// Options tunes rule learning.
type Options struct {
	// AnchorLevels bounds how far up anchor text is searched (default 3).
	AnchorLevels int
}

func (o Options) withDefaults() Options {
	if o.AnchorLevels == 0 {
		o.AnchorLevels = 3
	}
	return o
}

// Learn induces extraction rules from the annotated sample pages.
func Learn(pages []TrainingPage, opts Options) *Extractor {
	opts = opts.withDefaults()
	// Collect paths per predicate across pages, plus anchor candidates,
	// positional-list levels, and the set of annotated value texts (which
	// must never be mistaken for anchors).
	paths := map[string][]xpath.Path{}
	anchors := map[string]map[string]int{} // pred -> anchor text -> count
	goldNodes := map[string]map[string]bool{}
	listLvls := map[string]map[int]bool{}
	valueTexts := map[string]bool{}
	docs := make([]*dom.Node, len(pages))
	for i, tp := range pages {
		docs[i] = dom.Parse(tp.Page.HTML)
		for pred, nodePaths := range tp.Labels {
			for _, ps := range nodePaths {
				p, err := xpath.Parse(ps)
				if err != nil {
					continue
				}
				paths[pred] = append(paths[pred], p)
				if goldNodes[pred] == nil {
					goldNodes[pred] = map[string]bool{}
					anchors[pred] = map[string]int{}
					listLvls[pred] = map[int]bool{}
				}
				goldNodes[pred][ps] = true
				if n := dom.ResolveXPath(docs[i], ps); n != nil {
					valueTexts[dom.CollapseSpace(textOf(n))] = true
					if a := anchorOf(n, opts.AnchorLevels); a != "" {
						anchors[pred][a]++
					}
					for _, lvl := range listLevels(n, opts.AnchorLevels) {
						listLvls[pred][lvl] = true
					}
				}
			}
		}
	}
	ex := &Extractor{}
	for _, pred := range sortedPredicates(paths) {
		// Group same-shape paths and generalize each group into a
		// pattern.
		groups := map[string][]xpath.Path{}
		for _, p := range paths[pred] {
			groups[shapeKey(p)] = append(groups[shapeKey(p)], p)
		}
		anchor := dominantAnchor(anchors[pred], valueTexts)
		for _, key := range sortedPredicates(groups) {
			pattern, ok := xpath.Generalize(groups[key])
			if !ok {
				continue
			}
			rule := Rule{Predicate: pred, Pattern: pattern}
			// Anchor-based addressing (the "++" enrichment): when the
			// value sits inside a positional list (dd/tr/li rows whose
			// index shifts with missing fields) and a label anchor exists,
			// wildcard the positional steps and address by anchor —
			// mirroring real Vertex rules' preceding-sibling predicates.
			if anchor != "" && pred != core.NameClass && len(listLvls[pred]) > 0 {
				rule.Anchor = anchor
				for lvl := range listLvls[pred] {
					// Level 0 is the node's element = second-to-last
					// pattern step for text-node paths, or the last for
					// element paths.
					stepIdx := len(pattern) - 1 - lvl
					if pattern[len(pattern)-1].Tag == "text()" {
						stepIdx--
					}
					if stepIdx >= 0 {
						rule.Pattern[stepIdx].Index = xpath.Wildcard
					}
				}
			} else if overMatches(docs, pattern, goldNodes[pred]) {
				if anchor != "" {
					rule.Anchor = anchor
				}
			}
			ex.Rules = append(ex.Rules, rule)
		}
	}
	return ex
}

// overMatches reports whether the pattern hits any training-page node that
// was not annotated for the predicate.
func overMatches(docs []*dom.Node, pattern xpath.Pattern, gold map[string]bool) bool {
	for _, doc := range docs {
		for _, n := range pattern.Apply(doc) {
			if !gold[n.XPath()] {
				return true
			}
		}
	}
	return false
}

// dominantAnchor picks the most common anchor text, never an annotated
// value (a sibling value in a multi-valued list is not a label).
func dominantAnchor(counts map[string]int, valueTexts map[string]bool) string {
	best, bestN := "", 0
	for _, a := range sortedPredicates(counts) {
		if valueTexts[a] {
			continue
		}
		if counts[a] > bestN {
			best, bestN = a, counts[a]
		}
	}
	return best
}

// anchorOf finds the label text near a value node: walking up the
// ancestors, it scans preceding element siblings nearest-first, skipping
// siblings of the same kind as the current container (other values of the
// same list — e.g. other <dd> entries), and returns the first differing
// sibling's text (the <dt>/<th>/label span).
func anchorOf(n *dom.Node, maxLevels int) string {
	elem := n
	if elem.Type == dom.TextNode {
		elem = elem.Parent
	}
	for lvl := 0; elem != nil && lvl <= maxLevels; lvl++ {
		if elem.Parent == nil {
			break
		}
		sibs := elem.Parent.Children
		idx := -1
		for i, s := range sibs {
			if s == elem {
				idx = i
				break
			}
		}
		for i := idx - 1; i >= 0; i-- {
			s := sibs[i]
			if s.Type != dom.ElementNode {
				continue
			}
			if s.Tag == elem.Tag && s.AttrOr("class", "") == elem.AttrOr("class", "") {
				continue // a sibling value, not a label
			}
			if t := s.Text(); t != "" && len(t) <= 40 {
				return t
			}
		}
		elem = elem.Parent
	}
	return ""
}

// listLevels reports, for a gold value node, the ancestor distances (0 =
// the node's element) at which the element has two or more same-tag
// element siblings — the positional-list steps missing fields shift.
func listLevels(n *dom.Node, maxLevels int) []int {
	elem := n
	if elem.Type == dom.TextNode {
		elem = elem.Parent
	}
	var out []int
	for lvl := 0; elem != nil && elem.Parent != nil && lvl <= maxLevels; lvl++ {
		same := 0
		for _, s := range elem.Parent.Children {
			if s.Type == dom.ElementNode && s.Tag == elem.Tag {
				same++
			}
		}
		if same >= 2 {
			out = append(out, lvl)
		}
		elem = elem.Parent
	}
	return out
}

// Extract applies the rule set to a page. The "name" rule supplies the
// subject; every other matched node yields an extraction with confidence
// 1 (wrappers are deterministic).
func (e *Extractor) Extract(p *core.Page) []core.Extraction {
	doc := dom.Parse(p.HTML)
	subject := ""
	for _, r := range e.Rules {
		if r.Predicate != core.NameClass {
			continue
		}
		for _, n := range r.Pattern.Apply(doc) {
			if t := dom.CollapseSpace(textOf(n)); t != "" {
				subject = t
				break
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
		for _, n := range r.Pattern.Apply(doc) {
			if r.Anchor != "" && anchorOf(n, 3) != r.Anchor {
				continue
			}
			value := dom.CollapseSpace(textOf(n))
			if value == "" {
				continue
			}
			key := r.Predicate + "\x00" + n.XPath()
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, core.Extraction{
				PageID:     p.ID,
				Subject:    subject,
				Predicate:  r.Predicate,
				Value:      value,
				Confidence: 1,
				Path:       n.XPath(),
			})
		}
	}
	return out
}

func textOf(n *dom.Node) string {
	if n.Type == dom.TextNode {
		return n.Data
	}
	return n.Text()
}

func shapeKey(p xpath.Path) string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.Tag
	}
	return strings.Join(parts, "/")
}

func sortedPredicates[V any](m map[string]V) []string {
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
func LabelsFromGold(facts []GoldFact, topicNamePath string) map[string][]string {
	labels := map[string][]string{}
	for _, f := range facts {
		labels[f.Predicate] = append(labels[f.Predicate], f.NodePath)
	}
	if topicNamePath != "" {
		labels[core.NameClass] = append(labels[core.NameClass], topicNamePath)
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
