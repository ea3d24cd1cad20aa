package vertex

import (
	"sort"
	"strings"

	"ceres/internal/core"
	"ceres/internal/dom"
	"ceres/internal/xpath"
	"ceres/internal/xpath/xpathtest"
)

// VERTEX++ as it ran before it read the stream pass: rules learned and
// applied on a dom.Parse tree, over xpath.Path labels, with the tree's
// pattern matcher (treeApply, treeGeneralize) and text reader (treeText).
// It is frozen here as the reference the stream-pass Learn and Extract are
// held to; its rules are the same Rule values, so the two compare
// directly. Do not change it.

func treeLearn(pages []TrainingPage) *Extractor {
	const maxLevels = 3
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
				p, err := xpathtest.Parse(ps)
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
				if n := treeResolveXPath(docs[i], ps); n != nil {
					valueTexts[dom.CollapseSpace(treeTextOf(n))] = true
					if a := treeAnchorOf(n, maxLevels); a != "" {
						anchors[pred][a]++
					}
					for _, lvl := range treeListLevels(n, maxLevels) {
						listLvls[pred][lvl] = true
					}
				}
			}
		}
	}
	ex := &Extractor{}
	for _, pred := range treeSortedKeys(paths) {
		groups := map[string][]xpath.Path{}
		for _, p := range paths[pred] {
			groups[treeShapeKey(p)] = append(groups[treeShapeKey(p)], p)
		}
		anchor := treeDominantAnchor(anchors[pred], valueTexts)
		for _, key := range treeSortedKeys(groups) {
			pattern, ok := treeGeneralize(groups[key])
			if !ok {
				continue
			}
			rule := Rule{Predicate: pred, Pattern: pattern}
			if anchor != "" && pred != core.NameClass && len(listLvls[pred]) > 0 {
				rule.Anchor = anchor
				for lvl := range listLvls[pred] {
					stepIdx := len(pattern) - 1 - lvl
					if pattern[len(pattern)-1].Tag == "text()" {
						stepIdx--
					}
					if stepIdx >= 0 {
						rule.Pattern[stepIdx].Index = xpath.Wildcard
					}
				}
			} else if treeOverMatches(docs, pattern, goldNodes[pred]) {
				if anchor != "" {
					rule.Anchor = anchor
				}
			}
			ex.Rules = append(ex.Rules, rule)
		}
	}
	return ex
}

func treeOverMatches(docs []*dom.Node, pattern xpath.Pattern, gold map[string]bool) bool {
	for _, doc := range docs {
		for _, n := range treeApply(pattern, doc) {
			if !gold[n.XPath()] {
				return true
			}
		}
	}
	return false
}

func treeDominantAnchor(counts map[string]int, valueTexts map[string]bool) string {
	best, bestN := "", 0
	for _, a := range treeSortedKeys(counts) {
		if valueTexts[a] {
			continue
		}
		if counts[a] > bestN {
			best, bestN = a, counts[a]
		}
	}
	return best
}

func treeAnchorOf(n *dom.Node, maxLevels int) string {
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
			if s.Tag == elem.Tag && treeAttrOr(s, "class") == treeAttrOr(elem, "class") {
				continue
			}
			if t := treeText(s); t != "" && len(t) <= 40 {
				return t
			}
		}
		elem = elem.Parent
	}
	return ""
}

func treeListLevels(n *dom.Node, maxLevels int) []int {
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

func treeExtract(e *Extractor, p *core.Page) []core.Extraction {
	doc := dom.Parse(p.HTML)
	subject := ""
	for _, r := range e.Rules {
		if r.Predicate != core.NameClass {
			continue
		}
		for _, n := range treeApply(r.Pattern, doc) {
			if t := dom.CollapseSpace(treeTextOf(n)); t != "" {
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
		for _, n := range treeApply(r.Pattern, doc) {
			if r.Anchor != "" && treeAnchorOf(n, 3) != r.Anchor {
				continue
			}
			value := dom.CollapseSpace(treeTextOf(n))
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

func treeTextOf(n *dom.Node) string {
	if n.Type == dom.TextNode {
		return n.Data
	}
	return treeText(n)
}

func treeShapeKey(p xpath.Path) string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.Tag
	}
	return strings.Join(parts, "/")
}

func treeSortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// treeGeneralize builds the most specific pattern matching all the given
// paths: tags must agree (otherwise ok=false); any step position where
// indices disagree becomes a wildcard.
func treeGeneralize(paths []xpath.Path) (xpath.Pattern, bool) {
	if len(paths) == 0 {
		return nil, false
	}
	base := paths[0]
	for _, p := range paths[1:] {
		if len(p) != len(base) {
			return nil, false
		}
		for i := range p {
			if p[i].Tag != base[i].Tag {
				return nil, false
			}
		}
	}
	pat := append(xpath.Pattern(nil), base...)
	for _, p := range paths[1:] {
		for i := range pat {
			if pat[i].Index != xpath.Wildcard && pat[i].Index != p[i].Index {
				pat[i].Index = xpath.Wildcard
			}
		}
	}
	return pat, true
}

// treeApply walks the tree and returns every node whose absolute path
// matches the pattern, in document order. Text-node steps use tag
// "text()"; comments have no step.
func treeApply(pat xpath.Pattern, doc *dom.Node) []*dom.Node {
	var out []*dom.Node
	var rec func(n *dom.Node, depth int)
	rec = func(n *dom.Node, depth int) {
		if depth == len(pat) {
			out = append(out, n)
			return
		}
		st := pat[depth]
		count := map[string]int{}
		for _, c := range n.Children {
			name := ""
			switch c.Type {
			case dom.ElementNode:
				name = c.Tag
			case dom.TextNode:
				name = "text()"
			}
			if name == "" {
				continue
			}
			count[name]++
			if name != st.Tag {
				continue
			}
			if st.Index == xpath.Wildcard || st.Index == count[name] {
				rec(c, depth+1)
			}
		}
	}
	rec(doc, 0)
	return out
}

// treeText is the whitespace-collapsed text of n's subtree, the pieces
// joined by single spaces.
func treeText(n *dom.Node) string {
	switch n.Type {
	case dom.TextNode:
		return dom.CollapseSpace(n.Data)
	case dom.CommentNode:
		return ""
	}
	var parts []string
	for _, c := range n.Children {
		if t := treeText(c); t != "" {
			parts = append(parts, t)
		}
	}
	return strings.Join(parts, " ")
}

func treeAttrOr(n *dom.Node, key string) string {
	v, _ := n.Attr(key)
	return v
}

// treeResolveXPath walks an absolute XPath from doc and returns the node
// it addresses, or nil.
func treeResolveXPath(doc *dom.Node, path string) *dom.Node {
	p, err := xpathtest.Parse(path)
	if err != nil {
		return nil
	}
	cur := doc
	for _, step := range p {
		name, idx := step.Tag, step.Index
		var next *dom.Node
		count := 0
		for _, c := range cur.Children {
			switch {
			case name == "text()" && c.Type == dom.TextNode,
				name == "comment()" && c.Type == dom.CommentNode,
				c.Type == dom.ElementNode && c.Tag == name:
				if count++; count == idx {
					next = c
				}
			}
			if next != nil {
				break
			}
		}
		if cur = next; cur == nil {
			return nil
		}
	}
	return cur
}
