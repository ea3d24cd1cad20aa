// Package core implements the CERES extraction framework itself (paper
// §2–§4): two-step distant-supervision annotation — topic identification
// (Algorithm 1) and relation annotation (Algorithm 2) — followed by
// training a multinomial logistic-regression node classifier over
// DOM-structural and nearby-text features, and extraction of new triples
// with calibrated confidences. The baseline variants the paper compares
// against (CERES-Topic, CERES-Baseline) are modes of the same pipeline.
package core

import (
	"ceres/internal/dom"
	"ceres/internal/strmatch"
)

// Field is one candidate text field of a page: the unit of annotation and
// extraction (§2.1).
type Field struct {
	// Node is the underlying text node.
	Node *dom.Node
	// Text is the collapsed text content.
	Text string
	// PathString is the absolute XPath of the text node
	// (dom.Node.XPath).
	PathString string
	// Norm caches the normalized text KB matching compares.
	Norm string
}

// Page is a parsed page prepared for the pipeline.
type Page struct {
	// ID identifies the page within its site.
	ID  string
	Doc *dom.Node
	// Fields lists the non-empty text fields in document order.
	Fields []*Field
}

// PreparePage parses HTML and enumerates its text fields with the context
// annotation and the reference extractor read: XPath and normalized text
// per field. Training (and internal/bench) prepare pages; serving never
// builds a tree.
func PreparePage(id, html string) *Page {
	doc := dom.Parse(html)
	nodes := dom.TextFields(doc)
	fields := make([]Field, len(nodes))
	p := &Page{ID: id, Doc: doc, Fields: make([]*Field, len(nodes))}
	for i, node := range nodes {
		f := &fields[i]
		f.Node = node
		f.Text = node.Text()
		f.PathString = node.XPath()
		f.Norm = strmatch.Normalize(f.Text)
		p.Fields[i] = f
	}
	return p
}
